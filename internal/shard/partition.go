package shard

import (
	"fmt"
	"runtime"

	"proram/internal/oram"
	"proram/internal/rng"
)

// request is one client operation routed to a partition. The payload is
// copied at admission, so workers never share buffers with clients. The
// frontend recycles requests: once answer has sent the reply, the worker
// must not touch the request again.
type request struct {
	index uint64 // global block index
	write bool
	// since is the clock floor of the first round that took the request
	// (notTaken until then); latency spans measure queueing from it.
	since uint64
	data  []byte // write payload bytes (admission-owned copy)
	resp  chan response
}

// notTaken is a request's since before a round takes it: above every
// clock floor, so the first round's floor replaces it.
const notTaken = ^uint64(0)

// response answers one request. Data is a fresh copy for reads.
type response struct {
	data []byte // plaintext block bytes returned to the caller
	err  error
}

// roundKind distinguishes the scheduler's round types.
type roundKind uint8

const (
	// roundDemand is a regular scheduling round: exactly roundSlots
	// accesses per partition (misses, then victim write-backs and dummy
	// padding).
	roundDemand roundKind = iota
	// roundFlush writes the victim queue and every dirty cached line back
	// (variable count, reported to the dispatcher for the equalizing pad
	// round).
	roundFlush
	// roundPad appends work.padTo dummies to a flush round so every
	// partition's flush has the same observable length.
	roundPad
)

// roundWork is one round's instruction to a partition worker.
type roundWork struct {
	kind  roundKind
	round uint64
	start uint64 // clock floor: the worker raises its store clock to this
	reqs  []*request
	padTo int // roundPad: dummy accesses to issue
}

// roundResult is what a worker reports back at the round barrier.
type roundResult struct {
	part        int
	leftovers   []*request // unserved requests, original arrival order
	real        int        // demand accesses issued this round
	dummy       int        // dummy accesses issued this round
	errors      int        // requests answered with an error
	trace       []oram.TraceEvent
	marks       []slotMark // per-slot trace boundaries (auditing only)
	issue       uint64     // demand rounds: first physical access's start (latency only)
	servedSince []uint64   // since of each answered request (latency only)
}

// partition is one independent Path ORAM shard plus its worker state.
// Everything below is owned by the goroutine that runs its rounds while a
// round is in flight: its worker, or for partition 0 the round driver
// itself. The driver may read another partition's counters and store
// clock only between rounds (the round barrier's channel operations order
// the accesses).
type partition struct {
	id          int
	localBlocks uint64
	roundSlots  int
	record      bool // keep per-round traces
	markSlots   bool // auditing: mark each slot's trace boundary
	lat         bool // latency spans: report the first issue and served requests' floors

	store    *Store
	cache    *Cache // client-side lines keyed by local slot; marks each access it issues
	dummyRnd *rng.Source

	// local maps global block index -> dense local slot, assigned in
	// first-touch order. Only ever indexed, never iterated.
	local     map[uint64]uint64
	nextLocal uint64

	// spare is the trace buffer the previous round's result carried. The
	// driver is done with it once it starts the next round, so the
	// controller records into it after this round's hand-off.
	spare    []oram.TraceEvent
	curMarks []slotMark // marks of the round in flight (markSlots only)
	padding  bool       // the pad loop is running: the cache's accesses fill pad slots

	// st holds the cumulative counters (see stats.go for the identities
	// they obey); computeStats fills in the rest.
	st PartitionStats

	// work and results connect a worker to the round driver; both are nil
	// on partition 0, whose rounds the driver runs itself.
	work    chan roundWork
	results chan<- roundResult
}

// handoffYields bounds how long a worker stays hot after reporting a round:
// it yields up to this many times while its work channel is empty, then
// parks in the receive. Commit plus admission take ≈ 5–7 µs between two
// rounds and one yield 120–460 ns on a 2-vCPU host, so the spin (50–180 µs)
// outlasts that gap several times over and an idle worker still parks
// soon. A parked worker whose vCPU is parked too wakes only after the
// other partitions have run their rounds; a hot one starts as soon as its
// work lands in the channel's buffer, so a round's partitions overlap.
const handoffYields = 400

// run is the worker goroutine: one round in, one result out, until the
// work channel closes. Between rounds it spins for at most handoffYields
// yields before it parks: that changes when it blocks, never what a round
// does.
func (p *partition) run() {
	for {
		// p.work has a single sender, the round driver, so work arrives in
		// the driver's send order. The Replay byte-identity tests hold the
		// round protocol around it.
		w, ok := <-p.work
		if !ok {
			return
		}
		p.results <- p.execRound(w)
		for i := 0; i < handoffYields && len(p.work) == 0; i++ {
			runtime.Gosched()
		}
	}
}

// execRound performs one round of the given kind.
func (p *partition) execRound(w roundWork) roundResult {
	if w.start > p.store.Now {
		p.store.Now = w.start
	}
	res := roundResult{part: p.id}
	switch w.kind {
	case roundDemand:
		p.demandRound(w, &res)
	case roundFlush:
		p.flushRound(&res)
	case roundPad:
		p.padRound(w, &res)
	}
	if p.record {
		res.trace = p.store.Ctrl.SwapTrace(p.spare)
		p.spare = res.trace
	}
	if p.markSlots {
		res.marks = p.curMarks
		p.curMarks = nil
	}
	return res
}

// mark closes one issued access slot for the auditor: the current trace
// length (the controller's trace starts with the round) bounds the slot's
// physical accesses. Callers mark exactly once per counted slot access,
// so the observed mark count is the wire-truth the shape test checks. pad
// says the slot was padding — a dummy, or a queued victim's write-back —
// which is the population the timing test compares with demand slots.
func (p *partition) mark(pad bool) {
	if !p.markSlots {
		return
	}
	p.curMarks = append(p.curMarks, slotMark{
		end: len(p.store.Ctrl.Trace()),
		pad: pad,
	})
}

// demandRound serves queued requests and pads to exactly roundSlots ORAM
// accesses. Cache hits serve for free (on-chip work is invisible), each
// miss costs exactly one access — the dirty lines its installs evict join
// the cache's victim queue — and the remaining slots write queued victims
// back, or issue dummies once the queue is empty. A miss starts while a
// slot is left and the queue has room for its evictions; otherwise it
// carries over.
func (p *partition) demandRound(w roundWork, res *roundResult) {
	if p.lat {
		// Every access starts once both its request and the controller
		// are ready, so a round's first starts at the clock or at the end
		// of the last round's background work, whichever is later (the
		// partitions run without Periodic's fixed-interval schedule). On a
		// shared banked device arbitrate replaces it with the contended
		// issue cycle.
		res.issue = max(p.store.Now, p.store.Ctrl.Stats().LastEnd)
	}
	budget := p.roundSlots
	for _, req := range w.reqs {
		// A floor is the largest partition clock, and clocks never fall,
		// so the minimum is the floor of the first round that took req.
		req.since = min(req.since, w.start)
		local, err := p.localSlot(req.index)
		if err != nil {
			p.fail(req, err, res)
			continue
		}
		// A hit costs no ORAM access. This is also how duplicate requests
		// within a round coalesce — the first miss installs the line, the
		// rest hit it. Whether a slot is cached follows the public access
		// sequence.
		if line, ok := p.cache.Lookup(local); ok {
			p.st.CacheHits++
			p.finish(req, line, res)
			continue
		}
		if budget < 1 || !p.cache.canFetch() {
			res.leftovers = append(res.leftovers, req)
			continue
		}
		p.demandAccess(req, local, res)
		budget--
	}
	// The pad count is fixed once demand service ends: the loop pads the
	// round to exactly roundSlots accesses, the obliviousness contract of
	// §4. The invariant panic on got != p.roundSlots right below the loop
	// holds it: a round one slot short or long panics.
	pad := budget
	p.padding = true
	for i := 0; i < pad; i++ {
		// A queued victim's write-back is a full recursive access, the same
		// shape as the dummy it replaces: padding that does work. It counts
		// as real; the cache hook marks its slot as padding. A failed seal
		// issues nothing and leaves the line queued; the slot falls through
		// to a dummy.
		if wrote, _ := p.cache.Drain(); wrote {
			res.real++
			p.st.RealAccesses++
			p.st.PadWritebacks++
			continue
		}
		p.dummyAccess()
		p.mark(true)
		res.dummy++
		p.st.DummyAccesses++
	}
	p.padding = false
	if got := res.real + res.dummy; got != p.roundSlots {
		//proram:invariant the fixed per-round access count is the scheduler's obliviousness contract; missing it is a budget-accounting bug
		panic(fmt.Sprintf("shard: partition %d issued %d accesses in round %d, contract is %d",
			p.id, got, w.round, p.roundSlots))
	}
}

// demandAccess serves a miss with one Cache.Fetch: one ORAM access, marked
// by the cache hook as its slot closes. The caller has checked canFetch,
// so the fetch issues its access even when it fails.
func (p *partition) demandAccess(req *request, local uint64, res *roundResult) {
	line, err := p.cache.Fetch(local)
	res.real++
	p.st.RealAccesses++
	if err != nil {
		p.fail(req, fmt.Errorf("shard: partition %d: %w", p.id, err), res)
		return
	}
	p.finish(req, line, res)
}

// finish applies the request to its cached line and answers it.
func (p *partition) finish(req *request, line Line, res *roundResult) {
	if req.write {
		p.st.Writes++
		line.Set(req.data)
		p.answer(req, response{}, res)
		return
	}
	p.st.Reads++
	p.answer(req, response{data: line.Bytes()}, res)
}

// fail answers a request with an error.
func (p *partition) fail(req *request, err error, res *roundResult) {
	res.errors++
	p.st.RequestErrors++
	p.answer(req, response{err: err}, res)
}

// answer replies to a request (the response channel is buffered, so the
// worker never blocks on a slow client). The send is the request's last
// use: the client recycles it as soon as the reply is received.
func (p *partition) answer(req *request, resp response, res *roundResult) {
	if p.lat {
		res.servedSince = append(res.servedSince, req.since)
	}
	req.resp <- resp
}

// dummyAccess performs one padding access: a full recursive read of a
// uniformly random local block, indistinguishable on the wire from a
// demand access. The result is discarded — nothing enters the cache, so
// padding never perturbs the prefetcher's locality signal.
func (p *partition) dummyAccess() {
	p.store.DemandRead(p.dummyRnd.Uint64n(p.localBlocks))
}

// flushRound writes the victim queue and every dirty cached line back,
// counting the accesses so the dispatcher can pad all partitions to the
// same flush length.
func (p *partition) flushRound(res *roundResult) {
	written, failed, _ := p.cache.Flush()
	res.real += written
	p.st.FlushAccesses += uint64(written)
	res.errors += failed
	p.st.RequestErrors += uint64(failed)
}

// padRound equalizes a flush round: padTo additional dummy accesses, so
// every partition's flush sub-round has the same length. Stats.Validate
// holds the loop (FlushAccesses+FlushPad equal on every partition), and
// so does the auditor's flush_equality test on the observed trace.
func (p *partition) padRound(w roundWork, res *roundResult) {
	for i := 0; i < w.padTo; i++ {
		p.dummyAccess()
		p.mark(true)
		res.dummy++
		p.st.FlushPad++
	}
}

// localSlot returns the partition-local slot of a global block index,
// assigning the next dense slot on first touch. First-touch order makes
// temporally adjacent blocks spatially adjacent in local space, which is
// the locality the per-partition super block scheme detects.
func (p *partition) localSlot(global uint64) (uint64, error) {
	if l, ok := p.local[global]; ok {
		return l, nil
	}
	if p.nextLocal >= p.localBlocks {
		return 0, fmt.Errorf("shard: partition %d full (%d local blocks); the keyed hash overfilled it — raise Blocks headroom or partitions",
			p.id, p.localBlocks)
	}
	l := p.nextLocal
	p.nextLocal++
	p.local[global] = l
	return l, nil
}
