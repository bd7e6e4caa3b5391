package shard

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"proram/internal/dram/banked"
	"proram/internal/obs"
	"proram/internal/obs/audit"
	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/seal"
)

// ErrClosed is returned for requests admitted after Close.
var ErrClosed = errors.New("shard: frontend closed")

// Config describes a sharded ORAM frontend. The public proram package
// derives one from its own Config; tests construct it directly.
type Config struct {
	// Partitions is the number of independent Path ORAM shards (P).
	Partitions int
	// RoundSlots is the fixed ORAM access count every partition issues per
	// scheduling round (R), 0 for the default of 2 (minRoundSlots), at most
	// 4096 (maxRoundSlots). A miss costs one slot whatever it evicts — the
	// dirty lines go to the cache's victim queue and are written back in
	// pad slots — so two is one miss plus one write-back per round.
	RoundSlots int
	// Blocks is the global logical capacity; BlockBytes the block size.
	Blocks     uint64
	BlockBytes int
	// CacheBlocks is the total client-side cache budget, split evenly
	// across partitions (16 per partition minimum; NewCache refuses a share
	// below the controller's MaxSuperBlock).
	CacheBlocks int
	// MaxSuperBlock is ignored: the client cache takes the bound from
	// the partition's controller (oram.Controller.MaxSuperBlock). The
	// field stays because the frozen benchmark names it in a literal.
	MaxSuperBlock int
	// Key seals payloads at rest (16/24/32-byte AES key, required).
	Key []byte
	// Seed drives every random choice: routing hash, per-partition ORAM
	// randomness, dummy-address draws, and sealing nonces.
	Seed uint64
	// ORAM is the per-partition controller template; NumBlocks, BlockBytes,
	// Seed and RecordTrace are overridden per partition.
	ORAM oram.Config
	// Banked, when non-nil, makes every partition contend for ONE shared
	// banked device instead of each owning a flat channel: partition trees
	// lay out at channel-aligned offsets of the same physical device, and
	// each round's accesses are arbitrated onto it at the round barrier in
	// canonical (slot, partition) order, so the contended timing is
	// deterministic no matter how the worker goroutines raced. Workers run
	// rounds on provisional private clocks; the barrier installs the
	// contended times. (The per-partition ORAM template's own Banked field
	// is ignored here — a private banked device per partition would dodge
	// exactly the contention this models.)
	Banked *banked.Config
	// RecordArrivals keeps the admission log needed to Replay a run.
	RecordArrivals bool
	// RecordAccesses keeps the canonical global access sequence (Log).
	RecordAccesses bool
	// Recorder, when non-nil, receives scheduler metrics. It must be
	// dedicated to this frontend or otherwise only touched between rounds:
	// all emissions happen on the dispatcher goroutine.
	Recorder *obs.Recorder
	// Audit, when non-nil, receives the wire-observable streams — per-slot
	// trace marks and arbitrated physical accesses — at every commit
	// barrier. The frontend Binds it to its own shape; like the
	// Recorder it must be dedicated to this frontend (all feeds happen on
	// the round driver). Setting it forces per-round trace recording.
	Audit *audit.Auditor
}

// minRoundSlots is RoundSlots' floor and default: one slot for a miss and
// one for a queued victim's write-back, so a round can both serve and
// drain. maxRoundSlots caps it: a round answers no request before its last
// slot has run, so an unbounded value is a Read that never returns.
const (
	minRoundSlots = 2
	maxRoundSlots = 1 << 12
)

// normalize fills defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Partitions < 1 {
		return c, fmt.Errorf("shard: Partitions %d must be >= 1", c.Partitions)
	}
	if c.Blocks < uint64(2*c.Partitions) {
		return c, fmt.Errorf("shard: Blocks %d too small for %d partitions", c.Blocks, c.Partitions)
	}
	if c.BlockBytes <= 0 {
		return c, fmt.Errorf("shard: BlockBytes %d must be positive", c.BlockBytes)
	}
	if c.RoundSlots == 0 {
		c.RoundSlots = minRoundSlots
	}
	if c.RoundSlots < minRoundSlots || c.RoundSlots > maxRoundSlots {
		return c, fmt.Errorf("shard: RoundSlots %d out of range [%d,%d]", c.RoundSlots, minRoundSlots, maxRoundSlots)
	}
	if c.CacheBlocks < 16*c.Partitions {
		c.CacheBlocks = 16 * c.Partitions
	}
	if len(c.Key) == 0 {
		return c, errors.New("shard: Key required (the public frontend derives one)")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Banked != nil {
		if err := c.Banked.Validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// Frontend is the partitioned ORAM: concurrent-safe Read/Write served by
// a single round-forming dispatcher, which runs partition 0's rounds
// itself, and one worker goroutine for each other partition.
type Frontend struct {
	cfg   Config
	pmap  *PartitionMap
	parts []*partition
	// dev is the shared banked device all partitions contend for (nil in
	// flat mode). Only the round driver touches it, at the commit barrier.
	dev *banked.Shared

	// results is the shared round barrier: every worker reports here and
	// the round driver collects exactly one result per worker.
	results chan roundResult

	mu           sync.Mutex
	cond         *sync.Cond
	queues       [][]*request
	pending      int
	nextSeq      uint64
	nextRound    uint64
	arrivals     []Arrival
	flushWaiters []chan error
	closed       bool
	snap         Stats
	log          *Log

	met    *metrics
	manual bool // replay mode: the caller drives rounds, no dispatcher
	done   chan struct{}

	// take and byPart are the round driver's per-round scratch: the queues
	// snapshotLocked hands a round, and the results collect gathers from
	// it, both in partition order. One round is in flight at a time, so
	// each is overwritten whole by the next round instead of reallocated;
	// a take[i] the workers are done with becomes the next queues[i].
	take   [][]*request
	byPart []roundResult
}

// requests recycles requests with their reply channels and payload
// buffers. Read and Write put theirs back once the reply is in: answer is
// a request's last use by the partition that serves it, and nothing reads
// an answered request again (snapshotLocked clears the spent take slices
// without reading them). The pool is package-level because the
// runtime keeps every pool with cached items reachable until two
// collections have passed: a pool inside Frontend would keep a closed
// frontend, its trees and its caches on the heap that long.
var requests = sync.Pool{New: func() any { return &request{resp: make(chan response, 1)} }}

// New builds a frontend and starts its dispatcher and workers. Callers
// must Close it to stop the goroutines.
func New(cfg Config) (*Frontend, error) {
	f, err := build(cfg, false)
	if err != nil {
		return nil, err
	}
	go f.dispatch()
	return f, nil
}

// build assembles partitions and workers. With manual set, no dispatcher
// runs and the caller drives rounds directly (replay mode).
func build(cfg Config, manual bool) (*Frontend, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	pmap, err := NewPartitionMap(cfg.Partitions, 0, mix(cfg.Seed, 0x726f757465))
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:     cfg,
		pmap:    pmap,
		parts:   make([]*partition, cfg.Partitions),
		results: make(chan roundResult, cfg.Partitions-1),
		queues:  make([][]*request, cfg.Partitions),
		take:    make([][]*request, cfg.Partitions),
		byPart:  make([]roundResult, cfg.Partitions),
		manual:  manual,
		done:    make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	if cfg.RecordAccesses {
		f.log = &Log{}
	}
	f.met = newMetrics(cfg.Recorder, f)

	p64 := uint64(cfg.Partitions)
	// Headroom over the expected Blocks/P load: the keyed hash spreads
	// groups, not blocks, so partitions see binomial load plus whole-group
	// granularity. A 25% margin plus a constant floor keeps the overflow
	// probability negligible at any practical scale.
	localBlocks := cfg.Blocks/p64 + cfg.Blocks/(4*p64) + 64
	cacheBlocks := cfg.CacheBlocks / cfg.Partitions // >= 16 after normalize
	// Shared-device arbitration replays each round's access sequence at the
	// barrier, and the auditor tests the observed trace — both need the
	// per-round traces even when the caller didn't ask for the access log.
	record := cfg.RecordAccesses || cfg.Banked != nil || cfg.Audit != nil
	for i := range f.parts {
		seedP := mix(cfg.Seed, 0x70617274<<8|uint64(i))
		ocfg := cfg.ORAM
		ocfg.NumBlocks = localBlocks
		ocfg.BlockBytes = cfg.BlockBytes
		ocfg.Seed = mix(seedP, 1)
		ocfg.RecordTrace = record
		// Workers run on provisional flat clocks; the shared device (below)
		// owns the banked timing, so partitions never build private ones.
		ocfg.Banked = nil
		ctrl, err := oram.New(ocfg)
		if err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", i, err)
		}
		sealer, err := seal.New(cfg.Key, rng.NewReader(mix(seedP, 2)))
		if err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", i, err)
		}
		p := &partition{
			id:          i,
			localBlocks: localBlocks,
			roundSlots:  cfg.RoundSlots,
			record:      record,
			markSlots:   cfg.Audit != nil,
			lat:         cfg.Recorder.Enabled(),
			store:       NewStore(ctrl, sealer, cfg.BlockBytes),
			dummyRnd:    rng.New(mix(seedP, 3)),
			local:       make(map[uint64]uint64),
		}
		if p.cache, err = NewCache(p.store, cacheBlocks, func() { p.mark(p.padding) }); err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", i, err)
		}
		f.parts[i] = p
	}
	// Partition 0 belongs to the round driver, which runs its rounds on its
	// own goroutine; every other partition gets a worker.
	for _, p := range f.parts[1:] {
		p.work = make(chan roundWork, 1) // the driver's send never waits for a spinning worker
		p.results = f.results
		go p.run()
	}
	if cfg.Audit != nil {
		if err := cfg.Audit.Bind(cfg.Partitions, f.parts[0].store.Ctrl.Leaves(), cfg.RoundSlots); err != nil {
			return nil, err
		}
	}
	if cfg.Banked != nil {
		ctrl0 := f.parts[0].store.Ctrl
		dev, err := banked.NewShared(*cfg.Banked, cfg.Partitions,
			ctrl0.TreeLevels(), ctrl0.Config().Z, cfg.BlockBytes, ctrl0.Config().CryptoLatency)
		if err != nil {
			return nil, fmt.Errorf("shard: shared banked device: %w", err)
		}
		f.dev = dev
		if cfg.Recorder.Enabled() {
			// All device accesses happen at the commit barrier on the round
			// driver, the same goroutine that owns every other emission.
			dev.Model().Instrument(cfg.Recorder)
		}
	}
	return f, nil
}

// Read returns a copy of the block's contents. Safe for concurrent use.
func (f *Frontend) Read(index uint64) ([]byte, error) {
	req, err := f.enqueue(index, false, nil)
	if err != nil {
		return nil, err
	}
	r := <-req.resp
	requests.Put(req)
	return r.data, r.err
}

// Write stores data (zero-padded to a full block). Safe for concurrent use.
func (f *Frontend) Write(index uint64, data []byte) error {
	req, err := f.enqueue(index, true, data)
	if err != nil {
		return err
	}
	r := <-req.resp
	requests.Put(req)
	return r.err
}

// enqueue admits one request: sequence number, arrival record, and the
// routed partition queue, all under one lock so the admission order is a
// total order the replay can reproduce. The request comes from requests;
// the caller puts it back once its reply is received.
func (f *Frontend) enqueue(index uint64, write bool, data []byte) (*request, error) {
	if index >= f.cfg.Blocks {
		return nil, fmt.Errorf("shard: index %d out of range (%d blocks)", index, f.cfg.Blocks)
	}
	if write && len(data) > f.cfg.BlockBytes {
		return nil, fmt.Errorf("shard: write of %d bytes exceeds block size %d", len(data), f.cfg.BlockBytes)
	}
	part := f.pmap.Lookup(index)
	req := requests.Get().(*request)
	req.index, req.write, req.since = index, write, notTaken
	if write {
		// A read never looks at data, so only a write refills it. The
		// emptied buffer's capacity is reused; its old bytes are never read.
		buf := req.data[:0]
		req.data = append(buf, data...)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		requests.Put(req)
		return nil, ErrClosed
	}
	if f.cfg.RecordArrivals {
		f.arrivals = append(f.arrivals, Arrival{Seq: f.nextSeq, Index: index, Write: write, Round: f.nextRound})
	}
	f.nextSeq++
	f.queues[part] = append(f.queues[part], req)
	f.pending++
	f.cond.Signal()
	f.mu.Unlock()
	return req, nil
}

// Flush writes every dirty cached block back through the ORAMs, padded so
// all partitions perform the same number of accesses. It waits for the
// queues to drain first, so it only terminates once admission pauses.
func (f *Frontend) Flush() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.manual {
		f.mu.Unlock()
		return errors.New("shard: Flush unavailable in replay mode")
	}
	ch := make(chan error, 1)
	f.flushWaiters = append(f.flushWaiters, ch)
	f.cond.Signal()
	f.mu.Unlock()
	return <-ch
}

// Close drains queued requests, answers pending flushes, and stops the
// dispatcher and workers. Requests admitted after Close fail with
// ErrClosed. A repeated Close waits for the first and returns nil.
func (f *Frontend) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return nil
	}
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	<-f.done
	return nil
}

// Stats returns the dispatcher's post-round snapshot. Safe for concurrent
// use; it never touches live worker state.
func (f *Frontend) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap.clone()
}

// CheckInvariant runs oram.Controller.CheckInvariant on every partition.
// It reads live worker state, so it is for tests that know no round is in
// flight: after Close, after a Flush nothing raced with, or once Stats
// accounts for every request a single client was answered.
func (f *Frontend) CheckInvariant() error {
	for i, p := range f.parts {
		if err := p.store.Ctrl.CheckInvariant(); err != nil {
			return fmt.Errorf("shard: partition %d: %w", i, err)
		}
	}
	return nil
}

// Arrivals returns a copy of the recorded admission log.
func (f *Frontend) Arrivals() []Arrival {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Arrival(nil), f.arrivals...)
}

// dispatch is the round-forming loop: snapshot the queues into a round
// whenever work is pending, run flushes when asked, exit when closed and
// drained. Pending work always goes before a waiting flush, never by
// scheduling; TestFlushRunsBehindQueuedRequests holds that order. After
// each demand round it yields once, so the clients the round answered can
// enqueue their next requests before the next snapshot: without the
// yield the driver snapshots at once and those clients miss the round.
// The yield changes when the driver runs, never what a round does.
func (f *Frontend) dispatch() {
	defer close(f.done)
	for {
		f.mu.Lock()
		for !f.closed && f.pending == 0 && len(f.flushWaiters) == 0 {
			f.cond.Wait()
		}
		if f.pending > 0 {
			round := f.snapshotLocked()
			f.mu.Unlock()
			f.runRound(round)
			runtime.Gosched()
			continue
		}
		waiters := f.flushWaiters
		f.flushWaiters = nil
		closed := f.closed
		f.mu.Unlock()
		if len(waiters) > 0 {
			err := f.runFlush()
			for _, ch := range waiters {
				ch <- err
			}
			continue
		}
		if closed {
			f.stopWorkers()
			return
		}
	}
}

// snapshotLocked claims the next round number and takes every queued
// request into f.take. Arrivals admitted from here on are tagged with the
// next round. The queues are double-buffered: the last committed round's
// take[i], which its worker let go of at the barrier, is emptied and
// collects the next arrivals.
func (f *Frontend) snapshotLocked() uint64 {
	round := f.nextRound
	f.nextRound++
	for i, spare := range f.take {
		clear(spare)
		f.take[i] = f.queues[i]
		f.queues[i] = spare[:0]
	}
	f.pending = 0
	return round
}

// clockFloor returns the maximum partition clock: the round barrier's
// synchronization point. Safe between rounds only.
func (f *Frontend) clockFloor() uint64 {
	var floor uint64
	for _, p := range f.parts {
		if p.store.Now > floor {
			floor = p.store.Now
		}
	}
	return floor
}

// runRound executes one demand round on the requests snapshotLocked took,
// on every partition, and commits the results. Called with no round in
// flight (dispatcher or replay driver).
func (f *Frontend) runRound(round uint64) {
	floor := f.clockFloor()
	f.commit(round, roundDemand, floor, f.runParts(func(i int) roundWork {
		return roundWork{kind: roundDemand, round: round, start: floor, reqs: f.take[i]}
	}))
}

// runFlush executes one flush round: every partition writes its dirty
// lines back, then a pad sub-round equalizes the access counts so the
// flush's observable length is the cross-partition maximum for all.
func (f *Frontend) runFlush() error {
	f.mu.Lock()
	round := f.nextRound
	f.nextRound++
	f.mu.Unlock()
	floor := f.clockFloor()
	flushed := f.runParts(func(int) roundWork {
		return roundWork{kind: roundFlush, round: round, start: floor}
	})
	f.commit(round, roundFlush, floor, flushed)
	longest := 0
	failures := 0
	for _, r := range flushed {
		if r.real > longest {
			longest = r.real
		}
		failures += r.errors
	}
	floor = f.clockFloor()
	// runParts reads flushed for the last time before its collect reuses it.
	f.commit(round, roundPad, floor, f.runParts(func(i int) roundWork {
		return roundWork{kind: roundPad, round: round, start: floor, padTo: longest - flushed[i].real}
	}))
	if failures > 0 {
		return fmt.Errorf("shard: flush failed to write back %d blocks", failures)
	}
	return nil
}

// runParts runs one round on every partition, work(i) being partition i's
// share: it hands each worker its work, runs partition 0's round on the
// driver's own goroutine and collects. If partition 0's round answered a
// client, a live driver yields before it collects: the reply readied the
// client on this goroutine's P, where it would otherwise wait out the
// collect and the commit.
func (f *Frontend) runParts(work func(i int) roundWork) []roundResult {
	for i := 1; i < len(f.parts); i++ {
		f.parts[i].work <- work(i)
	}
	w := work(0)
	own := f.parts[0].execRound(w)
	if !f.manual && len(own.leftovers) < len(w.reqs) {
		runtime.Gosched()
	}
	return f.collect(own)
}

// collect gathers the round's results in partition order: own, the
// driver's partition 0, and one per worker from the shared barrier
// channel, regardless of completion order. The slice is the frontend's
// scratch: it is good until the next collect.
func (f *Frontend) collect(own roundResult) []roundResult {
	f.byPart[0] = own
	for range f.parts[1:] {
		// Results arrive in completion order; one per worker per round,
		// and byPart reindexes them by partition, so that order never
		// escapes. The Replay byte-identity tests and FuzzReplay hold this
		// line: stored in arrival order, live runs stop matching replays.
		r := <-f.results
		f.byPart[r.part] = r
	}
	return f.byPart
}

// commit publishes a completed round: shared-device arbitration, access-log
// records in (round, partition) order, leftover requeueing, the stats
// snapshot, and obs emissions. Runs on the round driver with all workers
// idle, which is what makes the worker-state reads and clock writes
// race-free.
func (f *Frontend) commit(round uint64, kind roundKind, floor uint64, byPart []roundResult) {
	f.mu.Lock()
	if f.dev != nil {
		f.arbitrate(floor, byPart)
	}
	leftovers := 0
	for i, r := range byPart {
		if len(r.leftovers) > 0 {
			f.queues[i] = slices.Insert(f.queues[i], 0, r.leftovers...)
			f.pending += len(r.leftovers)
			leftovers += len(r.leftovers)
		}
	}
	if f.log != nil {
		for _, r := range byPart {
			f.log.Shapes = append(f.log.Shapes, RoundShape{
				Round: round, Part: r.part, Kind: uint8(kind),
				Real: r.real, Dummy: r.dummy,
			})
			for _, ev := range r.trace {
				f.log.Paths = append(f.log.Paths, PathRec{
					Round: round, Part: r.part,
					Leaf: uint64(ev.Leaf), Start: ev.Start, Kind: uint8(ev.Kind),
				})
			}
		}
	}
	// A flush is one round with two barriers: its snapshot is published
	// at the pad barrier, so no reader sees flush lengths that are not
	// yet equalized.
	if kind != roundFlush {
		f.snap = f.computeStats(kind, leftovers)
	}
	pending := f.pending
	f.mu.Unlock()
	// The audit feed and the metrics run after arbitration so start cycles
	// are the contended ones the wire would show. Both touch only
	// round-driver-owned state (auditor, recorder).
	f.feedAudit(round, kind, byPart)
	f.met.onRound(f, kind, floor, byPart, pending)
}

// arbitrate schedules the round's recorded accesses onto the shared banked
// device, slot-major across partitions from the round's clock floor, then
// installs the contended times: each trace event's provisional start is
// rewritten to its arbitrated issue cycle (before the log sees it), as is
// the round's first issue, and each partition's clock — store and
// controller — moves to its last access's data-ready time. Callers hold mu
// with all workers idle.
func (f *Frontend) arbitrate(floor uint64, byPart []roundResult) {
	lanes := make([][]uint64, len(f.parts))
	for _, r := range byPart {
		lane := make([]uint64, len(r.trace))
		for j, ev := range r.trace {
			lane[j] = uint64(ev.Leaf)
		}
		lanes[r.part] = lane
	}
	starts, ready := f.dev.CommitRound(floor, lanes)
	for i := range byPart {
		r := &byPart[i]
		for j := range r.trace {
			r.trace[j].Start = starts[r.part][j]
		}
		if len(r.trace) > 0 {
			r.issue = r.trace[0].Start
		}
		p := f.parts[r.part]
		p.store.Now = ready[r.part]
		p.store.Ctrl.AlignClock(ready[r.part])
	}
}

// computeStats rebuilds the stats snapshot from worker state, refilling
// its Partitions in place: nothing outside the mutex ever holds that slice
// (Stats and Replay hand out clones). Callers hold mu and run at the round
// barrier.
func (f *Frontend) computeStats(kind roundKind, leftovers int) Stats {
	s := f.snap
	switch kind {
	case roundDemand:
		s.Rounds++
	case roundPad: // the second, closing barrier of a flush round
		s.FlushRounds++
	}
	s.Carryovers += uint64(leftovers)
	s.RoundSlots = f.cfg.RoundSlots
	s.Reads, s.Writes, s.CacheHits = 0, 0, 0
	s.RealAccesses, s.PadWritebacks, s.DummyAccesses = 0, 0, 0
	s.FlushAccesses, s.FlushPad = 0, 0
	s.RequestErrors = 0
	s.Cycles = 0
	if s.Partitions == nil {
		s.Partitions = make([]PartitionStats, len(f.parts))
	}
	for i, p := range f.parts {
		ps := p.st
		ps.LocalBlocks = p.nextLocal
		ps.StashSize = p.store.Ctrl.StashSize()
		ps.ORAM = p.store.Ctrl.Stats()
		s.Partitions[i] = ps
		s.Reads += ps.Reads
		s.Writes += ps.Writes
		s.CacheHits += ps.CacheHits
		s.RealAccesses += ps.RealAccesses
		s.PadWritebacks += ps.PadWritebacks
		s.DummyAccesses += ps.DummyAccesses
		s.FlushAccesses += ps.FlushAccesses
		s.FlushPad += ps.FlushPad
		s.RequestErrors += ps.RequestErrors
		if p.store.Now > s.Cycles {
			s.Cycles = p.store.Now
		}
	}
	if f.dev != nil {
		s.Banked = f.dev.Model().Stats()
		s.BankedActive = true
	}
	return s
}

// stopWorkers closes the workers' channels and lets them exit.
func (f *Frontend) stopWorkers() {
	for _, p := range f.parts[1:] {
		close(p.work)
	}
}
