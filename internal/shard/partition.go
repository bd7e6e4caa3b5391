package shard

import (
	"fmt"
	"runtime"

	"proram/internal/oram"
	"proram/internal/rng"
)

// request is one client operation routed to a partition. The payload is
// copied at admission, so workers never share buffers with clients.
type request struct {
	seq   uint64
	index uint64 // global block index
	write bool
	arr   uint64 // arrival round (latency spans measure from its clock floor)
	//proram:secret write payload bytes (admission-owned copy)
	data []byte
	resp chan response
}

// response answers one request. Data is a fresh copy for reads.
type response struct {
	//proram:secret plaintext block bytes returned to the caller
	data []byte
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
	part      int
	round     uint64
	leftovers []*request // unserved requests, original arrival order
	real      int        // demand accesses issued this round
	dummy     int        // dummy accesses issued this round
	errors    int        // requests answered with an error
	trace     []oram.TraceEvent
	marks     []slotMark // per-slot trace boundaries (auditing only)
	servedArr []uint64   // arrival rounds of answered requests (latency only)
}

// partition is one independent Path ORAM shard plus its worker state.
// Everything below is owned by the worker goroutine while a round is in
// flight; the dispatcher may read counters and the store clock only
// between rounds (the round barrier's channel operations order the
// accesses).
type partition struct {
	id          int
	localBlocks uint64
	roundSlots  int
	record      bool // keep per-round traces
	markSlots   bool // auditing: mark each slot's trace boundary
	lat         bool // latency spans: report served requests' arrival rounds
	dropDummies bool // LeakDropDummies negative control: lie about padding

	store    *Store
	cache    *Cache // client-side lines keyed by local slot; marks each access it issues
	dummyRnd *rng.Source

	// local maps global block index -> dense local slot, assigned in
	// first-touch order. Only ever indexed, never iterated.
	local     map[uint64]uint64
	nextLocal uint64

	lastTraceLen int
	curMarks     []slotMark // marks of the round in flight (markSlots only)
	padding      bool       // the pad loop is running: the cache's accesses fill pad slots

	// Cumulative counters (see stats.go for the identities they obey).
	reads, writes uint64
	cacheHits     uint64
	realAccesses  uint64 // demand-round ORAM accesses
	padWritebacks uint64 // the victim write-backs among them, issued in pad slots
	dummyAccesses uint64 // demand-round padding accesses
	flushAccesses uint64 // flush-round write-backs
	flushPad      uint64 // flush-round padding accesses
	requestErrors uint64

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
	res := roundResult{part: p.id, round: w.round}
	switch w.kind {
	case roundDemand:
		p.demandRound(w, &res)
	case roundFlush:
		p.flushRound(&res)
	case roundPad:
		p.padRound(w, &res)
	}
	if p.record {
		tr := p.store.Ctrl.Trace()
		res.trace = append([]oram.TraceEvent(nil), tr[p.lastTraceLen:]...)
		p.lastTraceLen = len(tr)
	}
	if p.markSlots {
		res.marks = p.curMarks
		p.curMarks = nil
	}
	return res
}

// mark closes one issued access slot for the auditor: the current trace
// length (relative to the round's start) bounds the slot's physical
// accesses. Callers mark exactly once per counted slot access, so the
// observed mark count is the wire-truth the shape test checks. pad says
// the slot was padding — a dummy, or a queued victim's write-back — which
// is the population the timing test compares with demand slots.
func (p *partition) mark(pad bool) {
	if !p.markSlots {
		return
	}
	p.curMarks = append(p.curMarks, slotMark{
		end: len(p.store.Ctrl.Trace()) - p.lastTraceLen,
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
	budget := p.roundSlots
	for _, req := range w.reqs {
		local, err := p.localSlot(req.index)
		if err != nil {
			p.fail(req, err, res)
			continue
		}
		// A hit costs no ORAM access. This is also how duplicate requests
		// within a round coalesce — the first miss installs the line, the
		// rest hit it.
		//proram:public whether a slot is cached follows the public access sequence
		if line, ok := p.cache.Lookup(local); ok {
			p.cacheHits++
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
			p.realAccesses++
			p.padWritebacks++
			continue
		}
		if p.dropDummies {
			// Negative control: claim the padding without issuing it. Every
			// counter and reported shape stays plausible — only the observed
			// trace (and the auditor watching it) knows.
			res.dummy++
			p.dummyAccesses++
			continue
		}
		p.dummyAccess()
		p.mark(true)
		res.dummy++
		p.dummyAccesses++
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
	p.realAccesses++
	if err != nil {
		p.fail(req, fmt.Errorf("shard: partition %d: %w", p.id, err), res)
		return
	}
	p.finish(req, line, res)
}

// finish applies the request to its cached line and answers it.
func (p *partition) finish(req *request, line Line, res *roundResult) {
	if req.write {
		p.writes++
		line.Set(req.data)
		p.answer(req, response{}, res)
		return
	}
	p.reads++
	p.answer(req, response{data: line.Bytes()}, res)
}

// fail answers a request with an error.
func (p *partition) fail(req *request, err error, res *roundResult) {
	res.errors++
	p.requestErrors++
	p.answer(req, response{err: err}, res)
}

// answer replies to a request (the response channel is buffered, so the
// worker never blocks on a slow client).
func (p *partition) answer(req *request, resp response, res *roundResult) {
	if p.lat {
		res.servedArr = append(res.servedArr, req.arr)
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
	p.flushAccesses += uint64(written)
	res.errors += failed
	p.requestErrors += uint64(failed)
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
		p.flushPad++
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
