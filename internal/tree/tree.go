// Package tree implements the Path ORAM binary-tree storage: a complete
// binary tree of buckets, each holding up to Z block slots, addressed by
// leaf labels exactly as in Stefanov et al.'s Path ORAM.
//
// The tree stores only block identifiers (occupancy); payloads live with
// the controller. Buckets are heap-numbered starting at node 1 (the root),
// so the children of node n are 2n and 2n+1 and the leaf labelled s lives
// at node 2^L + s. Level 0 is the root and level L holds the leaves,
// matching the paper's terminology.
package tree

import (
	"fmt"
	"math/bits"

	"proram/internal/mem"
)

// Tree is the untrusted binary-tree storage. The zero value is unusable;
// construct with New.
type Tree struct {
	levels int // L: leaves are at depth L, so there are L+1 bucket levels
	z      int
	slots  []mem.BlockID // node-major: slots[(node-1)*z + i]
	used   uint64        // number of occupied slots, for diagnostics
}

// New creates an empty tree with the given number of levels L (leaves =
// 2^L) and bucket capacity z. It panics on nonsensical parameters.
func New(levels, z int) *Tree {
	if levels < 1 || levels > 40 {
		//proram:invariant tree geometry comes from Config.Validate-checked parameters; a bad level count is a wiring bug
		panic(fmt.Sprintf("tree: levels %d out of range [1,40]", levels))
	}
	if z < 1 {
		//proram:invariant tree geometry comes from Config.Validate-checked parameters; a bad bucket size is a wiring bug
		panic(fmt.Sprintf("tree: bucket size %d must be positive", z))
	}
	nodes := (uint64(1) << (levels + 1)) - 1
	slots := make([]mem.BlockID, nodes*uint64(z))
	for i := range slots {
		slots[i] = mem.Nil
	}
	return &Tree{levels: levels, z: z, slots: slots}
}

// Levels returns L, the depth of the leaves.
func (t *Tree) Levels() int { return t.levels }

// Z returns the bucket capacity.
func (t *Tree) Z() int { return t.z }

// Leaves returns the number of leaf buckets, 2^L.
func (t *Tree) Leaves() uint64 { return 1 << t.levels }

// Buckets returns the total number of buckets in the tree.
func (t *Tree) Buckets() uint64 { return (1 << (t.levels + 1)) - 1 }

// Capacity returns the total number of block slots.
func (t *Tree) Capacity() uint64 { return t.Buckets() * uint64(t.z) }

// Used returns the number of occupied slots.
func (t *Tree) Used() uint64 { return t.used }

// NodeAt returns the heap index of the bucket at the given depth on the
// path to leaf. Depth 0 is the root; depth L is the leaf bucket itself.
//
//proram:hotpath heap-index arithmetic on every bucket touch
func (t *Tree) NodeAt(leaf mem.Leaf, depth int) uint64 {
	if depth < 0 || depth > t.levels {
		//proram:invariant depths are produced by loops bounded by t.levels; going past them is an algorithm bug
		panic(fmt.Sprintf("tree: depth %d out of range [0,%d]", depth, t.levels))
	}
	leafNode := t.Leaves() + uint64(leaf)
	return leafNode >> uint(t.levels-depth)
}

// CommonDepth returns the depth of the deepest bucket shared by the paths
// to leaves a and b. A block mapped to leaf b may be written into any
// bucket on path a at depth <= CommonDepth(a, b).
//
//proram:hotpath eviction depth computation for every stashed block
func (t *Tree) CommonDepth(a, b mem.Leaf) int {
	// The paths diverge at the highest bit in which the labels differ.
	return t.levels - bits.Len64(uint64(a)^uint64(b))
}

// slotBase returns the index of node's first slot in the flat slot array.
func (t *Tree) slotBase(node uint64) uint64 { return (node - 1) * uint64(t.z) }

// BucketCount returns the number of real blocks currently in the bucket.
func (t *Tree) BucketCount(node uint64) int {
	base := t.slotBase(node)
	n := 0
	for i := 0; i < t.z; i++ {
		if !t.slots[base+uint64(i)].IsNil() {
			n++
		}
	}
	return n
}

// RemovePath removes every real block on the path to leaf and appends
// their IDs to dst, returning the extended slice. This is the read phase
// of a Path ORAM access (step 2): all real blocks move to the stash.
//
//proram:hotpath the read phase of every path access
func (t *Tree) RemovePath(leaf mem.Leaf, dst []mem.BlockID) []mem.BlockID {
	for depth := 0; depth <= t.levels; depth++ {
		base := t.slotBase(t.NodeAt(leaf, depth))
		bucket := t.slots[base : base+uint64(t.z)]
		for i := range bucket {
			if id := bucket[i]; !id.IsNil() {
				dst = append(dst, id) //proram:allow allocdiscipline appends into the caller's reusable path buffer
				bucket[i] = mem.Nil
				t.used--
			}
		}
	}
	return dst
}

// ScanPath calls visit for every real block on the path to leaf without
// removing anything. Used by invariant checks and diagnostics.
func (t *Tree) ScanPath(leaf mem.Leaf, visit func(depth int, id mem.BlockID)) {
	for depth := 0; depth <= t.levels; depth++ {
		base := t.slotBase(t.NodeAt(leaf, depth))
		for i := 0; i < t.z; i++ {
			if id := t.slots[base+uint64(i)]; !id.IsNil() {
				visit(depth, id)
			}
		}
	}
}

// PlaceAt inserts id into the bucket at the given depth on the path to
// leaf. It reports false if the bucket is full. This is the write-back
// phase primitive (step 5).
//
//proram:hotpath the write-back primitive of every path access
func (t *Tree) PlaceAt(leaf mem.Leaf, depth int, id mem.BlockID) bool {
	if id.IsNil() {
		//proram:invariant placing Nil would corrupt the free-slot accounting silently; callers iterate live stash entries only
		panic("tree: PlaceAt with nil block")
	}
	base := t.slotBase(t.NodeAt(leaf, depth))
	bucket := t.slots[base : base+uint64(t.z)]
	for i := range bucket {
		if bucket[i].IsNil() {
			bucket[i] = id
			t.used++
			return true
		}
	}
	return false
}

// FillAt places ids, in order, into the free slots of the bucket at the
// given depth on the path to leaf, first free slot first — exactly what
// one PlaceAt per id would do — and returns how many it placed: min(free
// slots, len(ids)). The write-back loop uses it so that each bucket is
// located and scanned once per path access.
//
//proram:hotpath the write-back of one bucket on every path access
func (t *Tree) FillAt(leaf mem.Leaf, depth int, ids []mem.BlockID) int {
	base := t.slotBase(t.NodeAt(leaf, depth))
	bucket := t.slots[base : base+uint64(t.z)]
	n := 0
	for i := range bucket {
		if n >= len(ids) {
			break
		}
		if !bucket[i].IsNil() {
			continue
		}
		id := ids[n]
		if id.IsNil() {
			//proram:invariant placing Nil would corrupt the free-slot accounting silently; callers iterate live stash entries only
			panic("tree: FillAt with nil block")
		}
		bucket[i] = id
		n++
	}
	t.used += uint64(n)
	return n
}

// FreeAt returns the number of free slots in the bucket at depth on path
// leaf.
//
//proram:hotpath bucket occupancy probe during write-back
func (t *Tree) FreeAt(leaf mem.Leaf, depth int) int {
	return t.z - t.BucketCount(t.NodeAt(leaf, depth))
}

// Contains reports whether id is somewhere on the path to leaf. Used by
// tests to check the Path ORAM invariant.
func (t *Tree) Contains(leaf mem.Leaf, id mem.BlockID) bool {
	found := false
	t.ScanPath(leaf, func(_ int, got mem.BlockID) {
		if got == id {
			found = true
		}
	})
	return found
}

// ForEach calls visit for every real block in the whole tree. Intended for
// tests and invariant checks, not the hot path.
func (t *Tree) ForEach(visit func(node uint64, id mem.BlockID)) {
	for node := uint64(1); node <= t.Buckets(); node++ {
		base := t.slotBase(node)
		for i := 0; i < t.z; i++ {
			if id := t.slots[base+uint64(i)]; !id.IsNil() {
				visit(node, id)
			}
		}
	}
}

// PathBytes returns the number of bytes moved by reading or writing one
// full path when blocks (real or dummy) are blockBytes large: (L+1) buckets
// of Z blocks each.
func (t *Tree) PathBytes(blockBytes int) uint64 {
	return uint64(t.levels+1) * uint64(t.z) * uint64(blockBytes)
}
