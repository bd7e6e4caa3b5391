package oram

import (
	"fmt"
	"slices"

	"proram/internal/mem"
	"proram/internal/superblock"
	"proram/internal/tree"
)

// prefill initializes the whole ORAM: every data block and position-map
// block gets a uniform random leaf, recorded in the position map, and is
// placed into the deepest free bucket on its path (overflow goes to the
// stash, as in a real initialization). Under the Static scheme, aligned
// groups are merged here — "in the initialization stage of Path ORAM,
// blocks are merged into super blocks" (§3.3).
//
// Each level draws and records its blocks' leaves in index order, then
// tree.PlaceAll places them a subtree at a time: the tree and the stash are
// the ones placing each block in turn would leave, and each subtree's
// buckets stay in cache while its blocks go in (DESIGN §3, prefill).
func (c *Controller) prefill() {
	var slots, buf, over []tree.Slot
	for level := 0; level <= c.pm.Depth(); level++ {
		if level == 0 && c.policy.Scheme() == superblock.Static {
			c.prefillStatic(c.policy.MaxSize())
			continue
		}
		count, top := c.pm.Count(level), level == c.pm.Depth()
		slots = slices.Grow(slots[:0], int(count))
		for index := uint64(0); index < count; index++ {
			leaf := c.randLeaf()
			if top {
				c.pm.SetTopLeaf(index, leaf)
			} else {
				c.pm.EntryFor(level, index).SetLabel(leaf)
			}
			s, ok := tree.Pack(mem.MakeID(level, index), leaf)
			if !ok {
				//proram:invariant Config.Validate bounds the blocks to tree.MaxBlocks and the tree to tree.MaxLevels, so every block and leaf fits a slot
				panic(fmt.Sprintf("oram: block %d at level %d, leaf %d, does not fit a tree slot", index, level, leaf))
			}
			slots = append(slots, s)
		}
		over, buf = c.tr.PlaceAll(slots, over[:0], buf)
		for _, s := range over {
			c.mustAdd(s.Block(), s.Leaf())
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
		c.st.ReadPath(c.tr, leaf)
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
// are not batched. Each candidate path's bottom three buckets, which hold
// most of its free slots, are loaded before it is counted.
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
				c.tr.Load(3, cand)
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
