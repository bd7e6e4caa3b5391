package oram

import (
	"fmt"

	"proram/internal/mem"
	"proram/internal/posmap"
	"proram/internal/superblock"
)

// dataAccess performs the data-tree path access for the requested block,
// including the super block mechanics: the whole super block is loaded and
// remapped together, the break algorithm (Algorithm 2) and merge algorithm
// (Algorithm 1) run while everything is on-chip, and the non-demand
// members are returned as prefetches.
//
// It returns the completion cycle and the prefetched sibling indices.
//
//proram:hotpath the data-tree access of every demand request
func (c *Controller) dataAccess(ready uint64, index uint64, wb bool) (uint64, []uint64) {
	fanout := uint64(c.cfg.Fanout)
	// Resolve the schedule first: periodic catch-up dummies must run
	// against the pre-remap position map (they relocate blocks).
	start := c.scheduleStart(max(ready, c.lastEnd))
	pbIdx := index / fanout
	slot := int(index % fanout)
	pb := c.pm.Block(1, pbIdx)

	e := &pb.Entries[slot]
	oldLeaf := e.Label()
	isNew := oldLeaf == mem.NoLeaf
	n := e.Size()
	if isNew {
		n = 1
		if c.policy.Scheme() == superblock.Static {
			// The static scheme merges aligned groups at initialization
			// (§3.3); first touch initializes the whole group.
			n = c.staticGroupSize(pb, slot)
		}
	}
	c.obsSBSize.Observe(float64(n))
	gStart := posmap.GroupStart(slot, n)
	newLeaf := c.randLeaf()

	// Remap the whole super block to one fresh leaf (steps 4 of §2.2
	// generalized to super blocks, §3.2).
	members := pb.Entries[gStart : gStart+n]
	for i := range members {
		m := &members[i]
		m.SetLabel(newLeaf)
		m.SetSize(n)
	}

	readLeaf := oldLeaf
	if isNew {
		// First touch: the block is not in the tree yet, so read an
		// independent decoy path rather than the freshly assigned leaf.
		// Reading newLeaf here would reveal it, and the block's next
		// access reads it again — a linkable duplicate in the physical
		// stream (the obliviousness auditor's uniformity test catches
		// the resulting pair correlation).
		readLeaf = c.randLeaf()
	}
	kind := KindData
	if wb {
		kind = KindWriteback
	}

	var prefetched []uint64
	//proram:allow allocdiscipline the during-path callback is one fixed closure per access, not per-block work
	done := c.rawPathAccess(start, readLeaf, kind, func() {
		// Gather: every member is now on-chip (path read moved tree
		// residents to the stash; the rest were already stashed).
		for i := gStart; i < gStart+n; i++ {
			id := mem.MakeID(0, pbIdx*fanout+uint64(i))
			switch {
			case c.st.Contains(id):
				c.st.SetLeaf(id, newLeaf)
			case isNew:
				c.mustAdd(id, newLeaf)
			default:
				//proram:invariant rawPathAccess just moved the whole read path into the stash, so a resident member cannot be missing
				panic(fmt.Sprintf("oram: super block member %v missing from path %d and stash", id, readLeaf))
			}
		}

		// Algorithm 2: fold prefetch outcomes into the break counter and
		// possibly break the super block. Break operations "may happen
		// when super blocks are accessed in the ORAM" (§4.3) — that
		// includes write-back accesses, which keeps stale super blocks
		// from lingering on write-heavy patterns.
		cur := group{pb: pb, pbIdx: pbIdx, start: gStart, size: n}
		if c.policy.Scheme() == superblock.Dynamic && n >= 2 {
			raw := c.breakUpdate(cur)
			if c.policy.ShouldBreak(raw, n) {
				cur = c.breakGroup(cur, slot, newLeaf)
			}
		} else if !wb && n == 1 && e.Prefetch {
			// A singleton demand miss on a previously prefetched block:
			// the prefetch went unused (a used copy would have hit in the
			// LLC instead of reaching the ORAM).
			e.Prefetch = false
			c.hitBits.clear(index)
			c.stats.ReloadedUnused++
		}

		if wb {
			// Write-backs remap (and possibly break) but never merge or
			// prefetch: nothing returns to the LLC.
			return
		}

		// Algorithm 1: merge check against the neighbor super block. A
		// merge does not change what is returned this access: the
		// neighbor's members are already in the LLC (that is the merge
		// condition), so only the pre-merge group travels to the cache.
		if c.policy.Scheme() == superblock.Dynamic {
			c.mergeCheck(cur)
		}

		// Return the super block: the demand block plus prefetched
		// siblings with prefetch bits set and hit bits cleared.
		for i := cur.start; i < cur.start+cur.size; i++ {
			gi := pbIdx*fanout + uint64(i)
			if i == slot {
				continue
			}
			pb.Entries[i].Prefetch = true
			c.hitBits.clear(gi)
			c.stats.PrefetchIssued++
			c.winIssued++
			prefetched = append(prefetched, gi) //proram:allow allocdiscipline the result escapes to the caller, and install/evict re-enters Write while it is held, so the slice cannot be pooled
		}
	})
	return done, prefetched
}

// group identifies a super block within one level-1 position-map block.
type group struct {
	pb    posmap.Block
	pbIdx uint64
	start int // child offset of the first member
	size  int // number of members (power of two)
}

// staticGroupSize returns the static scheme's merge granularity for the
// group containing slot: the configured size, shrunk if the group would
// fall off the end of a partial position-map block.
func (c *Controller) staticGroupSize(pb posmap.Block, slot int) int {
	n := c.policy.MaxSize()
	for n > 1 && posmap.GroupStart(slot, n)+n > len(pb.Entries) {
		n /= 2
	}
	return n
}

// breakUpdate implements the counter phase of Algorithm 2: every member's
// prefetch/hit bits are folded into the break counter (hit: +1, miss: -1)
// and cleared. It returns the raw (unclamped) counter value.
//
//proram:hotpath runs inside every dynamic-scheme super-block access
func (c *Controller) breakUpdate(g group) int {
	raw := int(g.pb.BreakCounter(g.start))
	members := g.pb.Entries[g.start : g.start+g.size]
	base := g.pbIdx*uint64(c.cfg.Fanout) + uint64(g.start)
	for i := range members {
		ge := &members[i]
		if !ge.Prefetch {
			continue
		}
		gi := base + uint64(i)
		if c.hitBits.get(gi) {
			raw++
			c.stats.ReloadedUsed++
		} else {
			raw--
			c.stats.ReloadedUnused++
		}
		ge.Prefetch = false
		c.hitBits.clear(gi)
	}
	stored := raw
	if stored < 0 {
		stored = 0
	}
	if stored > 255 {
		stored = 255
	}
	g.pb.SetBreakCounter(g.start, uint8(stored))
	return raw
}

// breakGroup implements the break phase of Algorithm 2: the super block
// splits into two halves mapped to independent fresh leaves; the half
// containing the demand block keeps the leaf chosen for this access. It
// returns the demand half.
//
//proram:hotpath runs inside the path access that triggers a break
func (c *Controller) breakGroup(g group, slot int, keepLeaf mem.Leaf) group {
	half := g.size / 2
	otherLeaf := c.randLeaf()
	lowerHasSlot := slot < g.start+half
	members := g.pb.Entries[g.start : g.start+g.size]
	base := g.pbIdx*uint64(c.cfg.Fanout) + uint64(g.start)
	for i := range members {
		ge := &members[i]
		ge.SetSize(half)
		inLower := i < half
		leaf := keepLeaf
		if inLower != lowerHasSlot {
			leaf = otherLeaf
		}
		ge.SetLabel(leaf)
		id := mem.MakeID(0, base+uint64(i))
		if !c.st.SetLeaf(id, leaf) {
			//proram:invariant the path read that triggered the break stashed every super-block member first
			panic(fmt.Sprintf("oram: breaking super block but member %v not stashed", id))
		}
	}
	// Reconstruct counters for the new granularity: the intra-pair merge
	// counter restarts at zero, and each half that is still a super block
	// gets a fresh break counter.
	g.pb.ResetMergeCounter(g.start)
	init := uint8(0)
	if half >= 2 {
		init = c.policy.BreakInitial(half)
	}
	g.pb.SetBreakCounter(g.start, init)
	g.pb.SetBreakCounter(g.start+half, init)
	c.stats.Breaks++
	c.obs.Instant("oram", "break", c.lastEnd, "half_size", uint64(half))

	ret := group{pb: g.pb, pbIdx: g.pbIdx, start: g.start, size: half}
	if !lowerHasSlot {
		ret.start = g.start + half
	}
	return ret
}

// mergeCheck implements Algorithm 1: if every block of the neighbor super
// block is in the LLC, the merge counter increments (else decrements), and
// on reaching the threshold the accessed super block B adopts the
// neighbor's position ("changing the position map of B to the position map
// of B'"), forming a super block of twice the size.
//
//proram:hotpath runs on every dynamic-scheme demand read
func (c *Controller) mergeCheck(g group) {
	n := g.size
	if 2*n > c.policy.MaxSize() {
		return
	}
	nb := posmap.NeighborStart(g.start, n)
	if nb+n > len(g.pb.Entries) {
		return
	}
	neighbor := g.pb.Entries[nb : nb+n]
	nbBase := g.pbIdx*uint64(c.cfg.Fanout) + uint64(nb)
	// The neighbor must currently be a same-size, already-touched group.
	// Its members all share one leaf, so any member names it for the merge.
	neighborLeaf := mem.NoLeaf
	for i := range neighbor {
		ge := &neighbor[i]
		neighborLeaf = ge.Label()
		if ge.Size() != n || neighborLeaf == mem.NoLeaf {
			return
		}
	}
	allInLLC := c.prober != nil
	if allInLLC {
		for i := range neighbor {
			if !c.prober.Present(nbBase + uint64(i)) {
				allInLLC = false
				break
			}
		}
	}
	pair := posmap.PairStart(g.start, n)
	if !allInLLC {
		g.pb.AddMergeCounter(pair, -1)
		return
	}
	ctr := g.pb.AddMergeCounter(pair, +1)
	if !c.policy.ShouldMerge(ctr, n) {
		return
	}

	// Merge: B adopts B''s leaf. B's members are all in the stash right
	// now, so remapping them is safe; B''s ORAM-resident copies keep their
	// existing (shared) leaf, preserving the path invariant.
	own := g.pb.Entries[g.start : g.start+n]
	base := g.pbIdx*uint64(c.cfg.Fanout) + uint64(g.start)
	for i := range own {
		m := &own[i]
		m.SetLabel(neighborLeaf)
		id := mem.MakeID(0, base+uint64(i))
		if !c.st.SetLeaf(id, neighborLeaf) {
			//proram:invariant merge runs inside the path read that stashed all of the merging block's members
			panic(fmt.Sprintf("oram: merging super block but member %v not stashed", id))
		}
	}
	merged := group{pb: g.pb, pbIdx: g.pbIdx, start: pair, size: 2 * n}
	pairMembers := g.pb.Entries[merged.start : merged.start+merged.size]
	for i := range pairMembers {
		m := &pairMembers[i]
		m.SetSize(merged.size)
	}
	// Reconstruct counters for the new granularity.
	g.pb.ResetMergeCounter(pair)
	g.pb.ResetMergeCounter(g.start)
	g.pb.ResetMergeCounter(nb)
	g.pb.SetBreakCounter(merged.start, c.policy.BreakInitial(merged.size))
	c.stats.Merges++
	c.obs.Instant("oram", "merge", c.lastEnd, "size", uint64(merged.size))
}
