// Package tree implements the Path ORAM binary-tree storage: a complete
// binary tree of buckets, each holding up to Z block slots, addressed by
// leaf labels exactly as in Stefanov et al.'s Path ORAM.
//
// The tree stores block identifiers with the leaf label each block is
// mapped to, as a Path ORAM bucket does; payloads live with the
// controller. Buckets are heap-numbered starting at node 1 (the root), so
// the children of node n are 2n and 2n+1 and the leaf labelled s lives at
// node 2^L + s. Level 0 is the root and level L holds the leaves, matching
// the paper's terminology.
package tree

import (
	"fmt"
	"math/bits"

	"proram/internal/mem"
)

// MaxLevels is the deepest tree a slot can label: a label has 31 bits.
const MaxLevels = labelBits

// MaxBlocks is the largest data population a slot can name. A slot names
// the block at hierarchy level l by an index below 2^(32-l); every level of
// a position map over at most MaxBlocks data blocks, with at least two
// entries per position-map block, stays inside that.
const MaxBlocks = 1 << (codeBits - 1)

// A slot holds one resident in 8 bytes: the block's code in the high 33
// bits and its leaf label in the low 31. The code of the block at level l
// with index i is (2i+1)·2^l, whose trailing zeros are the level, so no
// code is zero and the zero slot is the empty one.
type slot uint64

const (
	labelBits = 31
	codeBits  = 64 - labelBits
)

// pack encodes a block and its label. It panics on a block or label the
// slot cannot hold; Nil is such a block.
//
//proram:hotpath encodes every block written back
func pack(id mem.BlockID, leaf mem.Leaf) slot {
	level, index := id.Level(), id.Index()
	if bits.Len64(index)+level > codeBits-1 || leaf >= 1<<labelBits {
		//proram:invariant trees are built for geometries Config.Validate bounds to MaxBlocks and MaxLevels, and callers place live stash entries only
		panic(fmt.Sprintf("tree: block %v at leaf %d does not fit a slot", id, leaf))
	}
	return slot((2*index+1)<<level<<labelBits | uint64(leaf))
}

// block decodes an occupied slot.
//
//proram:hotpath decodes every block read off a path
func (s slot) block() Labeled {
	code := uint64(s) >> labelBits
	level := bits.TrailingZeros64(code)
	return Labeled{ID: mem.MakeID(level, code>>(level+1)), Leaf: mem.Leaf(s & (1<<labelBits - 1))}
}

// Labeled is a block together with the leaf label it is stored under.
type Labeled struct {
	ID   mem.BlockID
	Leaf mem.Leaf
}

// Tree is the untrusted binary-tree storage. The zero value is unusable;
// construct with New.
type Tree struct {
	levels int // L: leaves are at depth L, so there are L+1 bucket levels
	z      int
	// slots is node-major: slots[(node-1)*z + i]. The occupied slots of a
	// bucket are always a prefix of it, since RemovePath empties whole
	// buckets and placement takes the first free slot.
	slots []slot
	used  uint64 // number of occupied slots, for diagnostics
}

// New creates an empty tree with the given number of levels L (leaves =
// 2^L) and bucket capacity z. It panics on nonsensical parameters.
func New(levels, z int) *Tree {
	if levels < 1 || levels > MaxLevels {
		//proram:invariant tree geometry comes from Config.Validate-checked parameters; a bad level count is a wiring bug
		panic(fmt.Sprintf("tree: levels %d out of range [1,%d]", levels, MaxLevels))
	}
	if z < 1 {
		//proram:invariant tree geometry comes from Config.Validate-checked parameters; a bad bucket size is a wiring bug
		panic(fmt.Sprintf("tree: bucket size %d must be positive", z))
	}
	t := &Tree{levels: levels, z: z}
	t.slots = make([]slot, t.Capacity())
	return t
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

// bucket returns the slots of the bucket at node.
//
//proram:hotpath locates every bucket touched
func (t *Tree) bucket(node uint64) []slot {
	base := (node - 1) * uint64(t.z)
	return t.slots[base : base+uint64(t.z)]
}

// fill returns the number of blocks in bucket: the length of its occupied
// prefix.
//
//proram:hotpath occupancy of every bucket touched
func fill(bucket []slot) int {
	for i, s := range bucket {
		if s == 0 {
			return i
		}
	}
	return len(bucket)
}

// BucketCount returns the number of real blocks currently in the bucket.
func (t *Tree) BucketCount(node uint64) int { return fill(t.bucket(node)) }

// RemovePathLabeled removes every real block on the path to leaf, root
// bucket first, and appends it, with its label, to dst, returning the
// extended slice. This is the read phase of a Path ORAM access (step 2):
// all real blocks move to the stash, and the labels spare the controller a
// position-map lookup per block.
//
//proram:hotpath the read phase of every path access
func (t *Tree) RemovePathLabeled(leaf mem.Leaf, dst []Labeled) []Labeled {
	leafNode := t.Leaves() + uint64(leaf)
	for depth := 0; depth <= t.levels; depth++ {
		bucket := t.bucket(leafNode >> uint(t.levels-depth))
		n := fill(bucket)
		for _, s := range bucket[:n] {
			dst = append(dst, s.block()) //proram:allow allocdiscipline appends into the caller's reusable path buffer
		}
		clear(bucket[:n])
		t.used -= uint64(n)
	}
	return dst
}

// RemovePath is RemovePathLabeled without the labels, for callers that
// track labels themselves: it appends the IDs of the path's blocks to dst.
func (t *Tree) RemovePath(leaf mem.Leaf, dst []mem.BlockID) []mem.BlockID {
	leafNode := t.Leaves() + uint64(leaf)
	for depth := 0; depth <= t.levels; depth++ {
		bucket := t.bucket(leafNode >> uint(t.levels-depth))
		n := fill(bucket)
		for _, s := range bucket[:n] {
			dst = append(dst, s.block().ID)
		}
		clear(bucket[:n])
		t.used -= uint64(n)
	}
	return dst
}

// PlaceAt inserts id into the bucket at the given depth on the path to
// leaf, under label leaf: leaf is the block's own label, and the bucket is
// the one its path and any access path through that depth share. It
// reports false if the bucket is full. This is the write-back phase
// primitive (step 5).
//
//proram:hotpath the write-back primitive of every path access
func (t *Tree) PlaceAt(leaf mem.Leaf, depth int, id mem.BlockID) bool {
	s := pack(id, leaf)
	bucket := t.bucket(t.NodeAt(leaf, depth))
	n := fill(bucket)
	if n == len(bucket) {
		return false
	}
	bucket[n] = s
	t.used++
	return true
}

// FillAt places blocks, in order and each under its own label, into the
// free slots of the bucket at the given depth on the path to accessLeaf,
// first free slot first — exactly what one PlaceAt per block would do —
// and returns how many it placed: min(free slots, len(blocks)). Every
// block's own path must pass through that bucket. The write-back loop uses
// it so that each bucket is located and scanned once per path access.
//
//proram:hotpath the write-back of one bucket on every path access
func (t *Tree) FillAt(accessLeaf mem.Leaf, depth int, blocks []Labeled) int {
	bucket := t.bucket(t.NodeAt(accessLeaf, depth))
	free := bucket[fill(bucket):]
	n := min(len(free), len(blocks))
	for i, b := range blocks[:n] {
		free[i] = pack(b.ID, b.Leaf)
	}
	t.used += uint64(n)
	return n
}

// FreeAt returns the number of free slots in the bucket at depth on path
// leaf.
func (t *Tree) FreeAt(leaf mem.Leaf, depth int) int {
	return t.z - t.BucketCount(t.NodeAt(leaf, depth))
}

// Contains reports whether id is somewhere on the path to leaf. Used by
// tests to check the Path ORAM invariant.
func (t *Tree) Contains(leaf mem.Leaf, id mem.BlockID) bool {
	for depth := 0; depth <= t.levels; depth++ {
		for _, s := range t.bucket(t.NodeAt(leaf, depth)) {
			if s != 0 && s.block().ID == id {
				return true
			}
		}
	}
	return false
}

// ForEach calls visit for every occupied slot in the whole tree, in node
// and slot order, with the slot's index in its bucket. It visits every
// occupied slot, also one past an empty slot, so a bucket whose blocks are
// not a prefix of it shows as a skipped index. Intended for tests and
// invariant checks, not the hot path.
func (t *Tree) ForEach(visit func(node uint64, i int, b Labeled)) {
	for node := uint64(1); node <= t.Buckets(); node++ {
		for i, s := range t.bucket(node) {
			if s != 0 {
				visit(node, i, s.block())
			}
		}
	}
}

// PathBytes returns the number of bytes moved by reading or writing one
// full path when blocks (real or dummy) are blockBytes large: (L+1)
// buckets of Z blocks each.
func (t *Tree) PathBytes(blockBytes int) uint64 {
	return uint64(t.levels+1) * uint64(t.z) * uint64(blockBytes)
}
