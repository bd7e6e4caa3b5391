package oram

import (
	"proram/internal/mem"
	"proram/internal/superblock"
)

// prefillBatch is how many blocks prefill places as one batch: one
// position-map block's children at the paper's fanout of 32.
const prefillBatch = 32

// prefill initializes the whole ORAM: every data block and position-map
// block gets a uniform random leaf, recorded in the position map, and is
// placed into the deepest free bucket on its path (overflow goes to the
// stash, as in a real initialization). Under the Static scheme, aligned
// groups are merged here — "in the initialization stage of Path ORAM,
// blocks are merged into super blocks" (§3.3).
//
// Blocks are placed in index order, level by level, in batches of
// consecutive blocks: the batch draws its leaves, loads the bottom buckets
// of their paths (tree.Load) and then places its blocks one by one. That
// overlaps the batch's cache misses instead of waiting on each, and decides
// nothing: place draws no randomness, so every leaf is drawn in the same
// order and every block lands where placing it alone would put it.
func (c *Controller) prefill() {
	var batch [prefillBatch]mem.Leaf
	for level := 0; level <= c.pm.Depth(); level++ {
		if level == 0 && c.policy.Scheme() == superblock.Static {
			c.prefillStatic(c.policy.MaxSize())
			continue
		}
		count := c.pm.Count(level)
		for first := uint64(0); first < count; first += prefillBatch {
			leaves := batch[:min(prefillBatch, count-first)]
			for i := range leaves {
				leaves[i] = c.randLeaf()
				if index := first + uint64(i); level == c.pm.Depth() {
					c.pm.SetTopLeaf(index, leaves[i])
				} else {
					c.pm.EntryFor(level, index).SetLabel(leaves[i])
				}
			}
			c.tr.Load(leaves...)
			for i, leaf := range leaves {
				c.place(mem.MakeID(level, first+uint64(i)), leaf)
			}
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
		c.readPath(leaf)
		c.st.EvictToPath(c.tr, leaf)
		if c.st.Size() < before {
			noProgress = 0
		} else {
			noProgress++
		}
	}
}

// prefillStatic places the data blocks as aligned static super blocks of
// size, group by group. A group needs its size in free slots along one
// path, so it retries a few leaves before falling back to the stash; that
// choice reads the tree the previous groups filled, which is why groups
// are not batched. Each candidate path is loaded before it is counted.
func (c *Controller) prefillStatic(size int) {
	fanout := uint64(c.cfg.Fanout)
	for pbIdx := uint64(0); pbIdx < c.pm.Count(1); pbIdx++ {
		pb := c.pm.Block(1, pbIdx)
		for s := 0; s < len(pb.Entries); {
			n := size
			for n > 1 && s+n > len(pb.Entries) {
				n /= 2
			}
			leaf := c.randLeaf()
			for try := 0; n > 1 && try < 8; try++ {
				cand := c.randLeaf()
				c.tr.Load(cand)
				if c.pathHolds(cand, n) {
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
}

// pathHolds reports whether the path to leaf has n free slots in all. It
// counts from the leaf bucket up and stops at n, so a path with room in
// its loaded bottom buckets is not read further.
func (c *Controller) pathHolds(leaf mem.Leaf, n int) bool {
	free := 0
	for depth := c.tr.Levels(); depth >= 0 && free < n; depth-- {
		free += c.tr.FreeAt(leaf, depth)
	}
	return free >= n
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
