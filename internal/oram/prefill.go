package oram

import (
	"proram/internal/mem"
	"proram/internal/superblock"
)

// prefill initializes the whole ORAM: every data block and position-map
// block gets a uniform random leaf, recorded in the position map, and is
// placed into the deepest free bucket on its path (overflow goes to the
// stash, as in a real initialization). Under the Static scheme, aligned
// groups are merged here — "in the initialization stage of Path ORAM,
// blocks are merged into super blocks" (§3.3).
func (c *Controller) prefill() {
	fanout := uint64(c.cfg.Fanout)
	staticSize := 1
	if c.policy.Scheme() == superblock.Static {
		staticSize = c.policy.MaxSize()
	}

	// Data blocks, group by group. Groups (static super blocks) need n
	// slots along a single path; retry a few leaves to avoid pathological
	// overflow before falling back to the stash.
	for pbIdx := uint64(0); pbIdx < c.pm.Count(1); pbIdx++ {
		pb := c.pm.Block(1, pbIdx)
		for s := 0; s < len(pb.Entries); {
			n := staticSize
			for n > 1 && s+n > len(pb.Entries) {
				n /= 2
			}
			leaf := c.randLeaf()
			for try := 0; n > 1 && try < 8; try++ {
				cand := c.randLeaf()
				if c.pathFree(cand) >= n {
					leaf = cand
					break
				}
			}
			for i := s; i < s+n; i++ {
				pb.Entries[i].SetLabel(leaf)
				pb.Entries[i].SetSize(n)
				c.place(mem.MakeID(0, pbIdx*fanout+uint64(i)), leaf)
			}
			s += n
		}
	}
	// Position-map blocks (never super blocks).
	for level := 1; level <= c.pm.Depth(); level++ {
		for i := uint64(0); i < c.pm.Count(level); i++ {
			leaf := c.randLeaf()
			if level == c.pm.Depth() {
				c.pm.SetTopLeaf(i, leaf)
			} else {
				c.pm.EntryFor(level, i).SetLabel(leaf)
			}
			c.place(mem.MakeID(level, i), leaf)
		}
	}
	// At ~50% slot utilization some placements overflow to the stash; the
	// initializer drains them with untimed evictions along the stashed
	// blocks' own paths (the real system's initialization does the same
	// work during bulk loading).
	// Bounded effort: an over-packed configuration (e.g. static super
	// blocks of 8 at high utilization) may leave residual stash pressure;
	// the runtime's background evictions keep working on it, which is
	// exactly the pathological behaviour Figure 7 demonstrates.
	noProgress := 0
	for c.st.OverLimit() && noProgress < 256 {
		before := c.st.Size()
		leaf := c.randLeaf()
		if before%2 == 0 { // alternate stash-guided and random paths
			c.st.ForEach(func(_ mem.BlockID, l mem.Leaf) { leaf = l })
		}
		c.scratch = c.tr.RemovePath(leaf, c.scratch[:0])
		for _, id := range c.scratch {
			c.mustAdd(id, c.leafOf(id))
		}
		c.st.EvictToPath(c.tr, leaf)
		if c.st.Size() < before {
			noProgress = 0
		} else {
			noProgress++
		}
	}
}

// pathFree returns the total free slots along the path to leaf.
func (c *Controller) pathFree(leaf mem.Leaf) int {
	free := 0
	for depth := 0; depth <= c.tr.Levels(); depth++ {
		free += c.tr.FreeAt(leaf, depth)
	}
	return free
}

// place puts id into the deepest free bucket on path leaf, falling back to
// the stash when the whole path is full.
func (c *Controller) place(id mem.BlockID, leaf mem.Leaf) {
	for depth := c.tr.Levels(); depth >= 0; depth-- {
		if c.tr.PlaceAt(leaf, depth, id) {
			return
		}
	}
	c.mustAdd(id, leaf)
}
