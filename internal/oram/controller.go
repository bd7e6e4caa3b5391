package oram

import (
	"fmt"

	"proram/internal/dram"
	"proram/internal/dram/banked"
	"proram/internal/mem"
	"proram/internal/obs"
	"proram/internal/posmap"
	"proram/internal/rng"
	"proram/internal/stash"
	"proram/internal/superblock"
	"proram/internal/tree"
)

// CacheProber lets the controller ask the processor's LLC whether a data
// block is currently cached. The merge algorithm (paper Algorithm 1) probes
// the LLC tag array for every block of the neighbor super block; the probe
// is off the critical path and free in the timing model (§4.5.2).
type CacheProber interface {
	// Present reports whether the data block with the given index is in
	// the LLC.
	Present(index uint64) bool
}

// Controller is the trusted Path ORAM controller. It is not safe for
// concurrent use; the simulator drives it from a single goroutine, exactly
// like the single memory controller in the paper's target system.
type Controller struct {
	cfg    Config
	policy *superblock.Policy
	tr     *tree.Tree
	st     *stash.Stash
	pm     *posmap.Hierarchy
	plb    *posmap.PLB
	rnd    *rng.Source
	prober CacheProber

	lastEnd uint64
	// dev times every path access: the flat analytic channel, or a banked
	// device scheduling bucket by bucket. Dependent work chains at the
	// device's data-ready time, so on a banked device the write-back phase
	// of one path overlaps the read phase of the next.
	dev dram.Device

	// hitBits holds the per-data-block hit bit: whether the block's last
	// prefetch was used (paper §4.3). One bit per data index.
	hitBits bitset

	stats Stats
	trace []TraceEvent
	dyn   dynOint

	// Observability (see observe.go): events only — every counter is a view
	// of stats registered there. Both handles are nil when no recorder is
	// installed; every emission below is then a single pointer check.
	obs          *obs.Recorder
	obsSBSize    *obs.Histogram
	obsSatDumped bool // stash-saturation flight dump emitted (once per run)

	// Adaptive-thresholding observation window (§4.4.2).
	winRequests int
	winBgEvicts uint64
	winHits     uint64
	winIssued   uint64
	winBusy     uint64
	winStart    uint64

	scratch []mem.BlockID // reusable path-read buffer
	chain   []uint64      // recursion-index buffer, one entry per hierarchy level
}

// New builds a controller. The tree is sized to hold the data blocks plus
// every position-map level (Unified ORAM: one tree for everything).
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pm, err := posmap.New(cfg.posMap())
	if err != nil {
		return nil, err
	}
	st, err := stash.New(cfg.StashLimit)
	if err != nil {
		return nil, err
	}
	levels := cfg.TreeLevels(pm.TotalBlocks())
	c := &Controller{
		cfg:     cfg,
		policy:  superblock.New(cfg.Super),
		tr:      tree.New(levels, cfg.Z),
		st:      st,
		pm:      pm,
		plb:     posmap.NewPLB(cfg.PLBBlocks),
		rnd:     rng.New(cfg.Seed),
		hitBits: newBitset(cfg.NumBlocks),
		chain:   make([]uint64, pm.Depth()+1),
		dev:     dram.Flat{Latency: cfg.PathLatency(levels)},
	}
	if cfg.Banked != nil {
		dev, err := banked.NewDevice(*cfg.Banked, levels, cfg.Z, cfg.BlockBytes, cfg.CryptoLatency)
		if err != nil {
			return nil, err
		}
		c.dev = dev
	}
	c.initDynOint()
	if cfg.Prefill {
		c.prefill()
	}
	return c, nil
}

// SetProber installs the LLC probe used by the merge algorithm. A nil
// prober makes every probe miss (merging then never triggers).
func (c *Controller) SetProber(p CacheProber) { c.prober = p }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// MaxSuperBlock returns the largest super block the policy forms (1 under
// the baseline scheme): one more than the most siblings a Read prefetches.
func (c *Controller) MaxSuperBlock() int { return c.policy.MaxSize() }

// TreeLevels returns the depth of the instantiated tree.
func (c *Controller) TreeLevels() int { return c.tr.Levels() }

// PathLatency returns the flat model's per-path-access latency in cycles.
func (c *Controller) PathLatency() uint64 { return c.cfg.PathLatency(c.tr.Levels()) }

// Stats returns a snapshot of the accumulated statistics.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.StashHighWater = c.st.HighWater()
	s.PLBHits = c.plb.Hits()
	s.PLBMisses = c.plb.Misses()
	s.LastEnd = c.lastEnd
	s.OintTransitions = c.dyn.transitions
	return s
}

// Trace returns the recorded physical access trace (RecordTrace only).
func (c *Controller) Trace() []TraceEvent { return c.trace }

// Leaves returns the number of leaves of the instantiated tree (a power
// of two) — the leaf-label range the obliviousness auditor tests against.
func (c *Controller) Leaves() uint64 { return c.tr.Leaves() }

// randLeaf draws a fresh uniform leaf label. Under the LeakBiasLeaf
// negative control the draw covers only the lower half of the range,
// which the auditor's uniformity test must flag.
//
//proram:hotpath one draw per path access and per remap
func (c *Controller) randLeaf() mem.Leaf {
	n := c.tr.Leaves()
	if c.cfg.LeakBiasLeaf {
		n /= 2
	}
	return mem.Leaf(c.rnd.Uint64n(n))
}

// mustAdd stashes a block, converting a stash error into a controller
// invariant failure: the controller only adds blocks it just removed from
// the tree or proved absent from the stash, so a rejection means the
// protocol state is corrupt.
//
//proram:hotpath runs once per block on every path read
func (c *Controller) mustAdd(id mem.BlockID, leaf mem.Leaf) {
	if err := c.st.Add(id, leaf); err != nil {
		//proram:invariant callers add only blocks removed from the tree or proven absent, so a stash rejection is unrecoverable state corruption
		panic("oram: " + err.Error())
	}
}

// leafOf returns the current mapping of any block, consulting the on-chip
// table for top-level position-map blocks and parent entries otherwise.
//
//proram:hotpath position lookup for every block on a read path
func (c *Controller) leafOf(id mem.BlockID) mem.Leaf {
	if id.Level() == c.pm.Depth() {
		return c.pm.TopLeaf(id.Index())
	}
	return c.pm.EntryFor(id.Level(), id.Index()).Label()
}

// scheduleStart returns the start time of the next path access given that
// the request is ready at `ready`. In periodic mode it first issues the
// dummy accesses the public schedule demands for the idle gap and then
// returns the next slot; otherwise the access starts as soon as both the
// request and the controller are ready.
//
//proram:hotpath scheduling decision before every path access
func (c *Controller) scheduleStart(ready uint64) uint64 {
	if !c.cfg.Periodic {
		return max(ready, c.lastEnd)
	}
	for c.lastEnd+c.currentOint() < ready {
		slot := c.lastEnd + c.currentOint()
		c.stats.DummyAccesses++
		c.observeScheduled(true)
		c.rawPathAccess(slot, c.randLeaf(), KindPeriodicDummy, nil)
	}
	c.observeScheduled(false)
	return c.lastEnd + c.currentOint()
}

// rawPathAccess performs one full path read+write at the given leaf: all
// real blocks on the path move to the stash, the optional during callback
// runs while everything is on-chip (this is where remaps and the super
// block algorithms act), and the stash is then greedily written back onto
// the same path. Returns the completion cycle.
//
//proram:hotpath the core path read+write of every ORAM access
func (c *Controller) rawPathAccess(start uint64, leaf mem.Leaf, kind AccessKind, during func()) uint64 {
	// Dependent work resumes at data-ready (read phase + crypto drain); on a
	// banked device the write-back keeps draining underneath the next path's
	// reads, charged as channel occupancy, not request latency.
	pt := c.dev.Path(start, uint64(leaf))
	end := pt.DataReady
	busy := pt.Done - start
	c.lastEnd = end
	c.stats.PathAccesses++
	c.stats.BusyCycles += busy
	c.stats.KindCycles[kind] += busy
	c.winBusy += busy
	c.stats.BytesMoved += 2 * c.tr.PathBytes(c.cfg.BlockBytes)
	switch kind {
	case KindData:
		c.stats.DataPaths++
	case KindWriteback:
		c.stats.WritebackPaths++
	case KindPosMap:
		c.stats.PosMapPaths++
	case KindBackgroundEvict:
		c.stats.BackgroundEvictions++
		c.winBgEvicts++
	case KindPeriodicDummy:
		// counted by the caller
	}
	if c.cfg.RecordTrace {
		c.trace = append(c.trace, TraceEvent{Leaf: uint64(leaf), Start: start, Kind: kind}) //proram:allow allocdiscipline trace recording is opt-in debugging, off in measured runs
	}
	c.obs.Span("oram", kind.String(), start, end-start, "leaf", uint64(leaf))

	c.scratch = c.tr.RemovePath(leaf, c.scratch[:0])
	for _, id := range c.scratch {
		c.mustAdd(id, c.leafOf(id))
	}
	if during != nil {
		during()
	}
	c.st.EvictToPath(c.tr, leaf)
	c.obs.MaybeSample(end)
	return end
}

// backgroundEvictions drains stash pressure with dummy accesses: random
// path read+writes with no remapping, after which stash occupancy cannot
// have grown (§2.4). Returns the number issued.
//
//proram:hotpath runs after every demand access
func (c *Controller) backgroundEvictions() int {
	n := 0
	noProgress := 0
	for c.st.OverLimit() {
		before := c.st.Size()
		start := c.scheduleStart(c.lastEnd)
		c.rawPathAccess(start, c.randLeaf(), KindBackgroundEvict, nil)
		n++
		if c.st.Size() < before {
			noProgress = 0
		} else if noProgress++; noProgress > 64 {
			// Saturated configurations (e.g. static super blocks of 8 at
			// high utilization) can pin the stash above its limit for a
			// while; give the demand stream a turn and keep churning on
			// later requests rather than spinning forever. The paid
			// accesses are already accounted — this is the pathological
			// slowdown the paper's Figure 7 shows for large static sizes.
			// Saturation recurs on nearly every access once entered; dump
			// the flight ring only on first entry.
			if !c.obsSatDumped {
				c.obsSatDumped = true
				c.obs.Flight("stash-saturation", c.lastEnd)
			}
			break
		}
		if n > 100_000 {
			c.obs.Flight("background-eviction-runaway", c.lastEnd)
			//proram:invariant Path ORAM guarantees dummy accesses shrink an over-limit stash in expectation; 100k without progress means the eviction logic is broken
			panic(fmt.Sprintf("oram: background eviction runaway (stash %d/%d)", c.st.Size(), c.st.Limit()))
		}
	}
	return n
}

// accessPosMapBlock performs one recursion-level path access on a PLB miss:
// remap the position-map block, read its old path, and move the block into
// the PLB. The PLB is exclusive, so the fill takes the block out of the
// stash (a first-touch block never enters it) and the LRU victim, if any,
// goes back into the stash under the label drawn at its own last fetch —
// recorded in its parent entry and not read since — to be written back by
// this and later path accesses. A PLB eviction therefore costs no access.
//
//proram:hotpath one run per recursion level on every PLB miss
func (c *Controller) accessPosMapBlock(ready uint64, id mem.BlockID) {
	// Resolve the schedule first: in periodic mode this issues catch-up
	// dummy accesses, which move blocks around and must therefore observe
	// the pre-remap position map.
	start := c.scheduleStart(max(ready, c.lastEnd))
	level, index := id.Level(), id.Index()
	newLeaf := c.randLeaf()
	var oldLeaf mem.Leaf
	if level == c.pm.Depth() {
		oldLeaf = c.pm.TopLeaf(index)
		c.pm.SetTopLeaf(index, newLeaf)
	} else {
		e := c.pm.EntryFor(level, index)
		oldLeaf = e.Label()
		e.SetLabel(newLeaf)
	}
	isNew := oldLeaf == mem.NoLeaf
	readLeaf := oldLeaf
	if isNew {
		// First touch reads an independent decoy path: the block is not
		// in the tree, and reading the just-assigned leaf would link
		// this access to the block's next one (see dataAccess).
		readLeaf = c.randLeaf()
	}
	//proram:allow allocdiscipline the during-path callback is one fixed closure per access, not per-block work
	c.rawPathAccess(start, readLeaf, KindPosMap, func() {
		if c.cfg.PLBBlocks == 0 {
			// No PLB: the block stays an ordinary stash resident.
			switch {
			case c.st.Contains(id):
				c.st.SetLeaf(id, newLeaf)
			case isNew:
				c.mustAdd(id, newLeaf)
			default:
				//proram:invariant the position map said the block lives on readLeaf, which rawPathAccess just moved to the stash in full
				panic(fmt.Sprintf("oram: position-map block %v not found on path %d", id, readLeaf))
			}
			return
		}
		if !c.st.Remove(id) && !isNew {
			//proram:invariant the position map said the block lives on readLeaf, which rawPathAccess just moved to the stash in full
			panic(fmt.Sprintf("oram: position-map block %v not found on path %d", id, readLeaf))
		}
		if victim, ok := c.plb.Insert(id); ok {
			c.mustAdd(victim, c.leafOf(victim))
		}
	})
}

// Read serves an LLC demand miss for the data block at index, arriving at
// cycle now. Write serves a dirty LLC eviction. Both perform the full
// recursive access; only Read returns prefetched siblings and exercises
// the merge/break algorithms.
//
//proram:hotpath demand-miss entry point
func (c *Controller) Read(now uint64, index uint64) Result {
	return c.access(now, index, false)
}

// Write writes back a dirty data block evicted from the LLC.
//
//proram:hotpath dirty-eviction entry point
func (c *Controller) Write(now uint64, index uint64) Result {
	return c.access(now, index, true)
}

//proram:hotpath full recursive access, the per-request critical path
func (c *Controller) access(now uint64, index uint64, wb bool) Result {
	if index >= c.cfg.NumBlocks {
		//proram:invariant the access path deliberately has no error channel; an out-of-range index is a caller bug, not simulated input
		panic(fmt.Sprintf("oram: block index %d out of range (%d blocks)", index, c.cfg.NumBlocks))
	}
	pathsBefore := c.stats.PathAccesses
	if wb {
		c.stats.Writebacks++
	} else {
		c.stats.DemandReads++
	}

	// Recursion walk: find the deepest position-map level cached in the
	// PLB, then access every level below it, top-down (§2.3, Unified ORAM).
	depth := c.pm.Depth()
	chain := c.chain
	idx := index
	for l := range chain {
		chain[l] = idx
		idx /= uint64(c.cfg.Fanout)
	}
	startLvl := depth + 1 // no PLB hit: start from the on-chip table
	for l := 1; l <= depth; l++ {
		if c.plb.Lookup(mem.MakeID(l, chain[l])) {
			startLvl = l
			break
		}
	}
	for l := startLvl - 1; l >= 1; l-- {
		c.accessPosMapBlock(now, mem.MakeID(l, chain[l]))
	}

	// Data access.
	done, prefetched := c.dataAccess(now, index, wb)

	// Stash pressure.
	c.backgroundEvictions()

	// Observation window for adaptive thresholding (§4.4.2).
	c.winRequests++
	if c.policy.Scheme() == superblock.Dynamic && c.winRequests >= c.cfg.Super.Window {
		c.rollWindow()
	}

	return Result{
		Done:       done,
		Prefetched: prefetched,
		PathCount:  int(c.stats.PathAccesses - pathsBefore),
	}
}

// rollWindow recomputes the Equation 1 rates from the finished window and
// resets the counters.
func (c *Controller) rollWindow() {
	elapsed := c.lastEnd - c.winStart
	if elapsed == 0 {
		elapsed = 1
	}
	// Prefetch accuracy is measured as hits per issued prefetch: issues
	// register immediately, so a burst of inaccurate merging is visible in
	// the very next window instead of only after the LLC churns the
	// useless lines out.
	hitRate := -1.0 // no prefetch activity: keep the previous estimate
	if c.winIssued > 0 {
		hitRate = float64(c.winHits) / float64(c.winIssued)
		if hitRate > 1 {
			hitRate = 1
		}
	}
	c.policy.UpdateRates(superblock.Rates{
		EvictionRate:    float64(c.winBgEvicts) / float64(c.winRequests),
		AccessRate:      float64(c.winBusy) / float64(elapsed),
		PrefetchHitRate: hitRate,
	})
	c.winRequests = 0
	c.winBgEvicts = 0
	c.winHits = 0
	c.winIssued = 0
	c.winBusy = 0
	c.winStart = c.lastEnd
}

// NotifyPrefetchUse records that a prefetched block was hit in the LLC:
// the block's hit bit is set (paper: "In Processor: when block b is
// accessed, b.hit = true") and the prefetch counts as a hit. An index at
// or past NumBlocks names no block and is ignored.
//
//proram:hotpath runs on every LLC hit of a prefetched line
func (c *Controller) NotifyPrefetchUse(index uint64) {
	if index >= c.cfg.NumBlocks || c.hitBits.get(index) {
		return
	}
	c.hitBits.set(index)
	c.stats.PrefetchHits++
	c.winHits++
}

// NotifyPrefetchEvict records that a prefetched block left the LLC without
// ever being used — a resolved prefetch miss for the Figure 9 metric and
// the Equation 1 hit-rate window. An index at or past NumBlocks names no
// block and is ignored.
func (c *Controller) NotifyPrefetchEvict(index uint64) {
	if index >= c.cfg.NumBlocks {
		return
	}
	c.stats.PrefetchUnused++
}

// bitset is a fixed-size set of block indices, one bit each. An index past
// the end is in no set: get reports false, set and clear do nothing.
type bitset []uint64

func newBitset(n uint64) bitset { return make(bitset, (n+63)/64) }

//proram:hotpath hit-bit probe inside the break algorithm
func (b bitset) get(i uint64) bool {
	w := int(i / 64)
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}

//proram:hotpath hit-bit update on every LLC hit of a prefetched line
func (b bitset) set(i uint64) {
	if w := int(i / 64); w < len(b) {
		b[w] |= 1 << (i % 64)
	}
}

//proram:hotpath hit-bit reset for every prefetched or reloaded block
func (b bitset) clear(i uint64) {
	if w := int(i / 64); w < len(b) {
		b[w] &^= 1 << (i % 64)
	}
}

// PosMapDepth returns the number of position-map levels above the data
// (the paper's hierarchy count minus one).
func (c *Controller) PosMapDepth() int { return c.pm.Depth() }

// DeviceStats returns the banked device's statistics when one is attached.
func (c *Controller) DeviceStats() (banked.Stats, bool) {
	if d, ok := c.dev.(*banked.Device); ok {
		return d.Model().Stats(), true
	}
	return banked.Stats{}, false
}

// AlignClock rewrites the controller's notion of "when the last access
// ended" to now. The sharded frontend uses it at the round barrier after
// arbitrating the round's provisionally-timed accesses onto the shared
// banked device: the worker ran the round on its private provisional
// clock, and the barrier installs the contended completion time before the
// next round starts. The adaptive-threshold window origin is clamped so a
// rewind can never underflow the window arithmetic.
func (c *Controller) AlignClock(now uint64) {
	c.lastEnd = now
	if c.winStart > now {
		c.winStart = now
	}
}
