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
	"slices"

	"proram/internal/mem"
)

// MaxLevels is the deepest tree a slot can label: a label has 31 bits.
const MaxLevels = labelBits

// MaxBlocks is the largest data population a slot can name. A slot names
// the block at hierarchy level l by an index below 2^(32-l); every level of
// a position map over at most MaxBlocks data blocks, with at least two
// entries per position-map block, stays inside that.
const MaxBlocks = 1 << (codeBits - 1)

// A Slot holds one resident in 8 bytes: the block's code in the high 33
// bits and its leaf label in the low 31. The code of the block at level l
// with index i is (2i+1)·2^l, whose trailing zeros are the level, so no
// code is zero and the zero slot is the empty one. The stash keeps its
// blocks in the same encoding, so a block moves between tree and stash as
// one word.
type Slot uint64

const (
	labelBits = 31
	codeBits  = 64 - labelBits
	labelMask = 1<<labelBits - 1
)

// Pack encodes a block and its label. It reports false for a block or
// label a slot cannot hold; Nil is such a block.
func Pack(id mem.BlockID, leaf mem.Leaf) (Slot, bool) {
	level, index := id.Level(), id.Index()
	if bits.Len64(index)+level > codeBits-1 || leaf > labelMask {
		return 0, false
	}
	return Slot((2*index+1)<<level<<labelBits | uint64(leaf)), true
}

// Code returns the block's code: the slot's high 33 bits, the same under
// every label and never zero for an occupied slot.
func (s Slot) Code() uint64 { return uint64(s) >> labelBits }

// Block decodes the block of an occupied slot.
func (s Slot) Block() mem.BlockID {
	code := s.Code()
	level := bits.TrailingZeros64(code)
	return mem.MakeID(level, code>>(level+1))
}

// Leaf returns the slot's label.
func (s Slot) Leaf() mem.Leaf { return mem.Leaf(s & labelMask) }

// Relabel returns the slot with its label replaced by leaf. It panics on
// a label a slot cannot hold.
func (s Slot) Relabel(leaf mem.Leaf) Slot {
	if leaf > labelMask {
		//proram:invariant labels come from leaf draws over trees Config.Validate bounds to MaxLevels
		panic(fmt.Sprintf("tree: leaf %d does not fit a slot", leaf))
	}
	return s&^labelMask | Slot(leaf)
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
	slots []Slot
	used  uint64 // number of occupied slots, for diagnostics
	// path is one path's worth of scratch words: RemovePathSlots reads the
	// path's slots into it, and EvictPath lists in it, as slot numbers, the
	// slot each placed block goes to.
	path []Slot
	// loaded keeps Load's reads live: it is written and never read.
	loaded Slot
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
	t.slots = make([]Slot, t.Capacity())
	t.path = make([]Slot, (levels+1)*z)
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
func (t *Tree) CommonDepth(a, b mem.Leaf) int {
	// The paths diverge at the highest bit in which the labels differ.
	return t.levels - bits.Len64(uint64(a)^uint64(b))
}

// bucket returns the slots of the bucket at node.
func (t *Tree) bucket(node uint64) []Slot {
	base := (node - 1) * uint64(t.z)
	return t.slots[base : base+uint64(t.z)]
}

// fill returns the number of blocks in bucket: the length of its occupied
// prefix.
func fill(bucket []Slot) int {
	for i, s := range bucket {
		if s == 0 {
			return i
		}
	}
	return len(bucket)
}

// BucketCount returns the number of real blocks currently in the bucket.
func (t *Tree) BucketCount(node uint64) int { return fill(t.bucket(node)) }

// RemovePathSlots removes every real block on the path to leaf, root
// bucket first, and appends its slot, unchanged, to dst, returning the
// extended slice. This is the read phase of a Path ORAM access (step 2):
// all real blocks move to the stash, and their labels come with them, so
// the controller looks up no position-map entry per block.
//
// The read does not branch on what it reads: after loading the whole path
// (Load), it copies each bucket's Z slots whole into a path's worth of
// scratch, clears them, and advances by the bucket's occupied count. The
// occupied slots are a prefix of the bucket, so the next bucket's copy
// overwrites the empty ones. One append then moves what was read onto
// dst, which grows only as far as the blocks it takes need.
func (t *Tree) RemovePathSlots(leaf mem.Leaf, dst []Slot) []Slot {
	t.Load(t.levels+1, leaf)
	z, out := t.z, t.path
	leafNode, w := t.Leaves()+uint64(leaf), 0
	for depth := 0; depth <= t.levels; depth++ {
		bucket := t.bucket(leafNode >> uint(t.levels-depth))
		// A bucket holds a word or three: a loop moves them for less than
		// copy's memmove would.
		o, k := out[w:w+z], 0
		for i, s := range bucket {
			o[i] = s
			bucket[i] = 0
			if s != 0 {
				k++
			}
		}
		w += k
	}
	t.used -= uint64(w)
	return append(dst, out[:w]...)
}

// RemovePath is RemovePathSlots for callers that track labels themselves:
// it appends the IDs of the path's blocks to dst.
func (t *Tree) RemovePath(leaf mem.Leaf, dst []mem.BlockID) []mem.BlockID {
	leafNode := t.Leaves() + uint64(leaf)
	for depth := 0; depth <= t.levels; depth++ {
		bucket := t.bucket(leafNode >> uint(t.levels-depth))
		n := fill(bucket)
		for _, s := range bucket[:n] {
			dst = append(dst, s.Block())
		}
		clear(bucket[:n])
		t.used -= uint64(n)
	}
	return dst
}

// PlaceAt inserts id into the bucket at the given depth on the path to
// leaf, under label leaf: leaf is the block's own label, and the bucket is
// the one its path and any access path through that depth share. It
// reports false if the bucket is full. The static scheme's prefill places
// its data blocks with it; every other prefill level uses PlaceAll, and the
// write-back of a path access uses EvictPath.
func (t *Tree) PlaceAt(leaf mem.Leaf, depth int, id mem.BlockID) bool {
	s, ok := Pack(id, leaf)
	if !ok {
		//proram:invariant trees are built for geometries Config.Validate bounds to MaxBlocks and MaxLevels, and callers place live blocks only
		panic(fmt.Sprintf("tree: block %v at leaf %d does not fit a slot", id, leaf))
	}
	bucket := t.bucket(t.NodeAt(leaf, depth))
	n := fill(bucket)
	if n == len(bucket) {
		return false
	}
	bucket[n] = s
	t.used++
	return true
}

// EvictPath is the write-back phase of a path access (step 5) in one call.
// stash holds the stashed blocks in insertion order. By Path ORAM's greedy
// rule each bucket on the path to accessLeaf, from the leaf bucket up and
// first free slot first, takes from the FIFO of blocks that may go there:
// what the buckets below had no room for, then, in stash order, the blocks
// whose height above the leaf bucket (the bit length of label XOR
// accessLeaf) is the bucket's own. The FIFO's head only moves forward, so
// the placed blocks are a prefix, of some length P, of the blocks ordered
// by height and then stash order. Height h's run starts at rank start_h,
// so its first min(n_h, max(0, P − start_h)) blocks are placed, and the
// slot each rank r < P goes to follows from the height counts and the
// path's free slots alone. So EvictPath counts the heights in one pass,
// walks the path once for P and each rank's slot, and in a second pass
// copies each placed block, unchanged, straight into its slot and moves
// the others forward in place, keeping their order. It returns those as
// kept, a prefix of stash, and the number placed. A bucket with nothing
// to take is not touched.
func (t *Tree) EvictPath(accessLeaf mem.Leaf, stash []Slot) (kept []Slot, placed int) {
	// next[h] counts height h's blocks, then holds the rank of its next one.
	var next [MaxLevels + 1]int
	for _, s := range stash {
		h := bits.Len64(uint64(s.Leaf() ^ accessLeaf))
		if h > t.levels {
			//proram:invariant stashed leaves come from the position map and the tree's labels, which lie in [0, Leaves); a divergence above the root means a corrupt label
			panic("tree: stashed block mapped outside the tree")
		}
		next[h]++
	}
	start := 0
	for h, n := range next[:t.levels+1] {
		next[h] = start
		start += n
	}
	// The walk: the bucket at height h may take ranks up to the end of its
	// own run, and dest lists, rank by rank, the slots the buckets fill.
	dest := t.path[:0]
	node, z := t.Leaves()+uint64(accessLeaf), uint64(t.z)
	for h := 0; h <= t.levels && len(dest) < len(stash); h++ {
		end := len(stash)
		if h < t.levels {
			end = next[h+1]
		}
		if len(dest) < end {
			base := (node - 1) * z
			for i := base + uint64(fill(t.slots[base:base+z])); i < base+z && len(dest) < end; i++ {
				dest = append(dest, Slot(i))
			}
		}
		node >>= 1
	}
	p := len(dest)
	if p == 0 {
		return stash, 0
	}
	n, left := 0, p
	for i, s := range stash {
		h := bits.Len64(uint64(s.Leaf() ^ accessLeaf))
		// Ranks past p are never placed, so a height's counter stops
		// there and a kept block writes nothing but its own entry.
		if r := next[h]; r < p {
			t.slots[dest[r]] = s
			next[h]++
			if left--; left == 0 {
				n += copy(stash[n:], stash[i+1:])
				break
			}
		} else {
			stash[n] = s
			n++
		}
	}
	t.used += uint64(p)
	return stash[:n], p
}

// splitBits is how many top bits of a leaf PlaceAll groups its blocks by:
// 2^8 subtrees, each ≈ 100 KB of buckets at the sim_locality geometry
// (L = 19, Z = 3), so a subtree stays in cache while its blocks go in.
const splitBits = 8

// PlaceAll places blocks by Path ORAM's greedy rule, each into the deepest
// bucket on its path with a free slot, and appends the blocks no bucket on
// their path takes to dst, in input order, returning the extended slice as
// over. blocks must be one hierarchy level's, each under its own label, in
// increasing Code order (index order); buf is scratch, returned for reuse.
//
// The tree it leaves is, slot for slot, the one PlaceAt leaves when each
// block in turn goes to the deepest depth that takes it, but it is built one
// subtree at a time. A block reaches a bucket only after every deeper bucket
// on its path was full, and a bucket below the top splitBits levels lies on
// the paths of one subtree's leaves only. So one stable counting pass splits
// the blocks by their leaf's top bits, each group fills its subtree in
// order, and the blocks the subtrees refused go into the top levels in Code
// order, as they would have arrived there one at a time: a block placed in
// the top levels takes no slot a later block could have had below them.
func (t *Tree) PlaceAll(blocks, dst, buf []Slot) (over, _ []Slot) {
	split := min(splitBits, t.levels)
	shift := t.levels - split
	var next [1<<splitBits + 1]int
	prev := uint64(0)
	for _, s := range blocks {
		if s.Code() <= prev || uint64(s.Leaf()) >= t.Leaves() {
			//proram:invariant prefill packs each level's blocks in index order under leaves it drew from this tree
			panic(fmt.Sprintf("tree: PlaceAll block %#x after code %#x, or past the last leaf", uint64(s), prev))
		}
		prev = s.Code()
		next[s.Leaf()>>shift+1]++
	}
	for g := 1; g < len(next); g++ {
		next[g] += next[g-1]
	}
	buf = slices.Grow(buf[:0], len(blocks))[:len(blocks)]
	for _, s := range blocks {
		g := s.Leaf() >> shift
		buf[next[g]] = s
		next[g]++
	}
	// Below the top levels: depth L up to each subtree's root at depth
	// split. The refused blocks keep their group's order at buf's head.
	deep, n := t.levels-split+1, 0
	for _, s := range buf {
		if !t.placeUp(s, t.Leaves()+uint64(s.Leaf()), deep) {
			buf[n] = s
			n++
		}
	}
	// A code is a slot's high bits and no two blocks share one, so sorting
	// the slots restores Code order.
	left := buf[:n]
	slices.Sort(left)
	for _, s := range left {
		if !t.placeUp(s, (t.Leaves()+uint64(s.Leaf()))>>deep, split) {
			dst = append(dst, s)
		}
	}
	return dst, buf
}

// placeUp puts s into the first free slot of the first bucket with one
// among the n buckets from node up toward the root, and reports whether a
// bucket took it.
func (t *Tree) placeUp(s Slot, node uint64, n int) bool {
	for ; n > 0; n-- {
		bucket := t.bucket(node)
		if used := fill(bucket); used < len(bucket) {
			bucket[used] = s
			t.used++
			return true
		}
		node >>= 1
	}
	return false
}

// Load reads, for every path in leaves, the given number of buckets from
// the leaf bucket up (at most the whole path), and changes nothing. A scan
// that branches on what it reads waits out each cache miss in turn; these
// loads decide nothing, so the misses of every bucket of every path given
// are in flight together. Each bucket's first and last slot are read,
// since a bucket of several slots may straddle a cache line. The read
// phase loads its whole path, the controller loads every path of a
// recursive access's chain before the first (DESIGN §3), and the static
// scheme's prefill loads the bottom three buckets of each candidate path
// before it counts the path's free slots.
func (t *Tree) Load(buckets int, leaves ...mem.Leaf) {
	z, slots := uint64(t.z), t.slots
	buckets = min(buckets, t.levels+1)
	var acc Slot
	for _, leaf := range leaves {
		node := t.Leaves() + uint64(leaf)
		for range buckets {
			b := (node - 1) * z
			acc ^= slots[b] ^ slots[b+z-1]
			node >>= 1
		}
	}
	t.loaded = acc
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
			if s != 0 && s.Block() == id {
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
				visit(node, i, Labeled{ID: s.Block(), Leaf: s.Leaf()})
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
