package cache

import "fmt"

// HierarchyConfig sizes the two-level hierarchy of Table 1.
type HierarchyConfig struct {
	L1 Config
	L2 Config
	// L1HitCycles and L2HitCycles are the load-to-use latencies.
	L1HitCycles uint64
	L2HitCycles uint64
}

// DefaultHierarchyConfig returns the paper's Table 1 cache parameters:
// 32 KB 4-way L1, 512 KB 8-way shared L2, 128-byte lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:          Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 128},
		L2:          Config{SizeBytes: 512 << 10, Ways: 8, LineBytes: 128},
		L1HitCycles: 1,
		L2HitCycles: 10,
	}
}

// Validate reports whether the configuration is usable.
func (c HierarchyConfig) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("cache: L1/L2 line sizes differ (%d vs %d)", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.L1HitCycles == 0 || c.L2HitCycles == 0 {
		return fmt.Errorf("cache: hit latencies must be positive")
	}
	return nil
}

// AccessOutcome reports what one core access or fill did. Its two lists
// are the Hierarchy's own buffers: they hold until the next Access, Fill
// or FillPrefetch on the same Hierarchy, which overwrites them, so a
// caller finishes with one outcome before it makes the next call.
type AccessOutcome struct {
	// HitLevel is 1 (L1 hit), 2 (LLC hit) or 0 (miss — memory needed).
	HitLevel int
	// Latency is the hit latency; meaningless on a miss (the memory system
	// supplies it).
	Latency uint64
	// Writebacks are block indices dirty-evicted from the LLC that must be
	// written to memory.
	Writebacks []uint64
	// PrefetchEvicted are prefetched-and-never-used block indices that
	// left the LLC (resolved prefetch misses).
	PrefetchEvicted []uint64
	// PrefetchFirstUse is set when this access consumed a prefetched line
	// for the first time (a resolved prefetch hit).
	PrefetchFirstUse bool
}

// Hierarchy is the inclusive L1+LLC pair: every L1 line is also in the
// LLC, so the merge algorithm's LLC probe sees everything cached on-chip.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *Cache
	l2  *Cache
	// writebacks and prefetchEvicted back every AccessOutcome's lists;
	// each call truncates and refills them, so a warm hierarchy allocates
	// nothing.
	writebacks      []uint64
	prefetchEvicted []uint64
}

// NewHierarchy builds an empty hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, l1: New(cfg.L1), l2: New(cfg.L2)}, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1 and LLC expose the individual levels for statistics.
func (h *Hierarchy) L1() *Cache  { return h.l1 }
func (h *Hierarchy) LLC() *Cache { return h.l2 }

// Present implements the ORAM controller's CacheProber against the LLC
// tag array.
func (h *Hierarchy) Present(index uint64) bool { return h.l2.Probe(index) }

// Access performs one core reference to the block at index. On an L1 miss
// that hits the LLC, the line is filled into L1. On a full miss the caller
// must fetch from memory and then call Fill.
func (h *Hierarchy) Access(index uint64, write bool) AccessOutcome {
	if hit, _ := h.l1.Access(index, write); hit {
		return AccessOutcome{HitLevel: 1, Latency: h.cfg.L1HitCycles}
	}
	hit, firstUse := h.l2.Access(index, write)
	if !hit {
		return AccessOutcome{HitLevel: 0}
	}
	out := h.outcome()
	out.HitLevel = 2
	out.Latency = h.cfg.L1HitCycles + h.cfg.L2HitCycles
	out.PrefetchFirstUse = firstUse
	h.fillL1(index, false, &out)
	return h.keep(out)
}

// Fill installs a block fetched from memory after a miss, into both levels.
func (h *Hierarchy) Fill(index uint64, write bool) AccessOutcome {
	out := h.outcome()
	h.insertL2(index, write, false, &out)
	h.fillL1(index, write, &out)
	return h.keep(out)
}

// FillPrefetch installs a prefetched block into the LLC only (paper §3.2:
// "the other blocks are prefetched and put into the LLC").
func (h *Hierarchy) FillPrefetch(index uint64) AccessOutcome {
	if h.l2.Probe(index) {
		// Already cached: nothing to do; the prefetch was redundant.
		return AccessOutcome{}
	}
	out := h.outcome()
	h.insertL2(index, false, true, &out)
	return h.keep(out)
}

// outcome starts an outcome whose lists are the hierarchy's buffers,
// emptied.
func (h *Hierarchy) outcome() AccessOutcome {
	return AccessOutcome{Writebacks: h.writebacks[:0], PrefetchEvicted: h.prefetchEvicted[:0]}
}

// keep takes back the buffers out's appends may have grown.
func (h *Hierarchy) keep(out AccessOutcome) AccessOutcome {
	h.writebacks, h.prefetchEvicted = out.Writebacks, out.PrefetchEvicted
	return out
}

// insertL2 inserts into the LLC, folding back-invalidated L1 state into
// the victim and recording memory writebacks / resolved prefetch misses.
func (h *Hierarchy) insertL2(index uint64, dirty, prefetched bool, out *AccessOutcome) {
	v := h.l2.Insert(index, dirty, prefetched)
	if !v.Valid {
		return
	}
	// Inclusive hierarchy: evicting from the LLC evicts from L1 too.
	l1v := h.l1.Invalidate(v.Index)
	if l1v.Valid {
		v.Dirty = v.Dirty || l1v.Dirty
		v.Used = v.Used || l1v.Used
	}
	if v.Dirty {
		out.Writebacks = append(out.Writebacks, v.Index)
	}
	if v.Prefetched && !v.Used {
		out.PrefetchEvicted = append(out.PrefetchEvicted, v.Index)
	}
}

// fillL1 inserts into L1; dirty L1 victims fall back into the LLC (which
// holds them by inclusion, so only the dirty bit needs merging).
func (h *Hierarchy) fillL1(index uint64, write bool, out *AccessOutcome) {
	v := h.l1.Insert(index, write, false)
	if v.Valid && v.Dirty {
		// The line is still in the LLC (inclusion); mark it dirty there.
		if !h.l2.Probe(v.Index) {
			// It was concurrently evicted from the LLC by this same fill:
			// write it back to memory directly.
			out.Writebacks = append(out.Writebacks, v.Index)
			return
		}
		h.l2.Insert(v.Index, true, false)
	}
}

// Flush writes back every dirty line (end-of-run accounting), returning
// the block indices that must go to memory, and the prefetched-unused
// lines resolved as misses.
func (h *Hierarchy) Flush() (writebacks, prefetchEvicted []uint64) {
	for _, v := range h.l1.Flush() {
		if v.Dirty {
			// Mark dirty in L2 (inclusion) so it is written back below.
			h.l2.Insert(v.Index, true, false)
		}
	}
	for _, v := range h.l2.Flush() {
		if v.Dirty {
			writebacks = append(writebacks, v.Index)
		}
		if v.Prefetched && !v.Used {
			prefetchEvicted = append(prefetchEvicted, v.Index)
		}
	}
	return writebacks, prefetchEvicted
}
