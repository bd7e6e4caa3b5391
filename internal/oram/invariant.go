package oram

import (
	"fmt"
	"sort"
	"strings"

	"proram/internal/mem"
	"proram/internal/posmap"
)

// CheckInvariant verifies the Path ORAM and super block invariants over
// the whole functional state:
//
//  1. Every block in the tree lies on the path of the leaf it is mapped to.
//  2. No block is resident in both the tree and the stash.
//  3. Every touched block (assigned leaf) is resident exactly once: a data
//     block in the tree or the stash, a position-map block in the tree,
//     the stash or the PLB — the PLB is exclusive, so a block it holds is
//     in neither of the other two, and it holds nothing but touched
//     position-map blocks.
//  4. No bucket holds more than Z blocks.
//  5. All members of a super block share one leaf and one size, and the
//     group is correctly aligned.
//
// Rather than stopping at the first problem it collects every violation
// and reports them sorted, so a corrupted state produces one complete,
// deterministic message regardless of traversal order — identical runs
// yield byte-identical failures.
//
// It is O(total blocks) and intended for tests on small configurations.
func (c *Controller) CheckInvariant() error {
	var violations []string
	addf := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	inTree := make(map[mem.BlockID]bool)
	c.tr.ForEach(func(node uint64, id mem.BlockID) {
		if inTree[id] {
			addf("block %v present twice in the tree", id)
			return
		}
		inTree[id] = true
		leaf := c.leafOf(id)
		if leaf == mem.NoLeaf {
			addf("tree holds untouched block %v", id)
			return
		}
		if !c.tr.Contains(leaf, id) {
			addf("block %v mapped to leaf %d is off its path", id, leaf)
		}
	})
	for node := uint64(1); node <= c.tr.Buckets(); node++ {
		if n := c.tr.BucketCount(node); n > c.cfg.Z {
			addf("bucket %d holds %d > Z=%d blocks", node, n, c.cfg.Z)
		}
	}
	inStash := make(map[mem.BlockID]bool)
	c.st.ForEach(func(id mem.BlockID, leaf mem.Leaf) {
		inStash[id] = true
		if inTree[id] {
			addf("block %v resident in both tree and stash", id)
			return
		}
		if got := c.leafOf(id); got != leaf {
			addf("block %v stash leaf %d disagrees with position map %d", id, leaf, got)
		}
	})

	// Residency and super block grouping for data blocks.
	fanout := uint64(c.cfg.Fanout)
	for pbIdx := uint64(0); pbIdx < c.pm.Count(1); pbIdx++ {
		pb := c.pm.Block(1, pbIdx)
		for s := 0; s < len(pb.Entries); s++ {
			e := &pb.Entries[s]
			id := mem.MakeID(0, pbIdx*fanout+uint64(s))
			leaf, n := e.Label(), e.Size()
			if leaf == mem.NoLeaf {
				if inTree[id] || inStash[id] {
					addf("untouched block %v is resident", id)
				}
				continue
			}
			if !inTree[id] && !inStash[id] {
				addf("touched block %v (leaf %d) is nowhere", id, leaf)
			}
			if n&(n-1) != 0 {
				addf("block %v has bad super block size %d", id, n)
				continue
			}
			g := posmap.GroupStart(s, n)
			if g+n > len(pb.Entries) {
				addf("block %v group [%d,%d) overflows its pos-map block", id, g, g+n)
				continue
			}
			for i := g; i < g+n; i++ {
				m := &pb.Entries[i]
				if m.Label() != leaf || m.Size() != n {
					addf("super block of %v inconsistent at offset %d: leaf %d/%d size %d/%d",
						id, i, m.Label(), leaf, m.Size(), n)
				}
			}
		}
	}

	// Residency for position-map blocks: tree, stash or PLB, exactly one.
	inPLB := 0
	for level := 1; level <= c.pm.Depth(); level++ {
		for i := uint64(0); i < c.pm.Count(level); i++ {
			id := mem.MakeID(level, i)
			leaf := c.leafOf(id)
			cached := c.plb.Contains(id)
			if cached {
				inPLB++
			}
			if leaf == mem.NoLeaf {
				if inTree[id] || inStash[id] || cached {
					addf("untouched pos-map block %v is resident", id)
				}
				continue
			}
			if cached && (inTree[id] || inStash[id]) {
				addf("pos-map block %v is in the PLB and also in the tree or stash", id)
			}
			if !inTree[id] && !inStash[id] && !cached {
				addf("touched pos-map block %v (leaf %d) is nowhere", id, leaf)
			}
		}
	}
	if inPLB != c.plb.Len() {
		addf("PLB holds %d blocks, %d of them position-map blocks", c.plb.Len(), inPLB)
	}

	if len(violations) == 0 {
		return nil
	}
	sort.Strings(violations)
	c.obs.Flight("invariant-failure", c.lastEnd)
	return fmt.Errorf("oram: %d invariant violation(s):\n  %s",
		len(violations), strings.Join(violations, "\n  "))
}

// StashSize exposes the current stash occupancy for tests and reporting.
func (c *Controller) StashSize() int { return c.st.Size() }
