package tree

import (
	"slices"
	"testing"
	"testing/quick"

	"proram/internal/mem"
	"proram/internal/rng"
)

func TestSizing(t *testing.T) {
	tr := New(3, 4)
	if tr.Leaves() != 8 {
		t.Fatalf("Leaves = %d, want 8", tr.Leaves())
	}
	if tr.Buckets() != 15 {
		t.Fatalf("Buckets = %d, want 15", tr.Buckets())
	}
	if tr.Capacity() != 60 {
		t.Fatalf("Capacity = %d, want 60", tr.Capacity())
	}
	if tr.Levels() != 3 || tr.Z() != 4 {
		t.Fatalf("Levels/Z = %d/%d", tr.Levels(), tr.Z())
	}
}

func TestNodeAt(t *testing.T) {
	tr := New(3, 1)
	// Paper Figure 1: L=3, path to leaf 5 passes root(1) -> 2? No: leaf 5
	// is node 8+5=13; its ancestors are 13, 6, 3, 1.
	want := []uint64{1, 3, 6, 13}
	for d, w := range want {
		if got := tr.NodeAt(5, d); got != w {
			t.Fatalf("NodeAt(5,%d) = %d, want %d", d, got, w)
		}
	}
	// Root is shared by all paths.
	for leaf := mem.Leaf(0); leaf < 8; leaf++ {
		if tr.NodeAt(leaf, 0) != 1 {
			t.Fatalf("NodeAt(%d,0) != root", leaf)
		}
	}
}

func TestNodeAtPanics(t *testing.T) {
	tr := New(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("NodeAt with bad depth did not panic")
		}
	}()
	tr.NodeAt(0, 4)
}

func TestCommonDepth(t *testing.T) {
	tr := New(3, 1)
	cases := []struct {
		a, b mem.Leaf
		want int
	}{
		{5, 5, 3}, // same leaf: full depth
		{4, 5, 2}, // siblings: parent at depth 2
		{0, 7, 0}, // opposite halves: only root
		{2, 3, 2},
		{0, 4, 0},
		{6, 7, 2},
		{4, 6, 1},
	}
	for _, c := range cases {
		if got := tr.CommonDepth(c.a, c.b); got != c.want {
			t.Errorf("CommonDepth(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := tr.CommonDepth(c.b, c.a); got != c.want {
			t.Errorf("CommonDepth(%d,%d) not symmetric", c.b, c.a)
		}
	}
}

func TestCommonDepthMatchesNodeAt(t *testing.T) {
	tr := New(6, 1)
	check := func(a, b uint16) bool {
		la := mem.Leaf(a % 64)
		lb := mem.Leaf(b % 64)
		d := tr.CommonDepth(la, lb)
		// Paths must share the node at depth d and diverge below it.
		if tr.NodeAt(la, d) != tr.NodeAt(lb, d) {
			return false
		}
		if d < tr.Levels() && tr.NodeAt(la, d+1) == tr.NodeAt(lb, d+1) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceRemoveRoundTrip(t *testing.T) {
	tr := New(4, 2)
	id1 := mem.MakeID(0, 1)
	id2 := mem.MakeID(0, 2)
	if !tr.PlaceAt(9, 4, id1) {
		t.Fatal("PlaceAt leaf bucket failed")
	}
	if !tr.PlaceAt(9, 0, id2) {
		t.Fatal("PlaceAt root failed")
	}
	if tr.Used() != 2 {
		t.Fatalf("Used = %d, want 2", tr.Used())
	}
	if !tr.Contains(9, id1) || !tr.Contains(9, id2) {
		t.Fatal("Contains lost a placed block")
	}
	// id2 is at the root, so it is on every path.
	if !tr.Contains(0, id2) {
		t.Fatal("root block not visible from other leaves")
	}
	if tr.Contains(0, id1) {
		t.Fatal("leaf-9 block visible from leaf 0")
	}
	got := tr.RemovePath(9, nil)
	if len(got) != 2 {
		t.Fatalf("RemovePath returned %d blocks, want 2", len(got))
	}
	if tr.Used() != 0 {
		t.Fatalf("Used after removal = %d, want 0", tr.Used())
	}
}

func TestBucketOverflowRejected(t *testing.T) {
	tr := New(2, 2)
	if !tr.PlaceAt(0, 1, mem.MakeID(0, 1)) || !tr.PlaceAt(0, 1, mem.MakeID(0, 2)) {
		t.Fatal("bucket should accept Z blocks")
	}
	if tr.PlaceAt(0, 1, mem.MakeID(0, 3)) {
		t.Fatal("bucket accepted more than Z blocks")
	}
	if tr.FreeAt(0, 1) != 0 {
		t.Fatalf("FreeAt = %d, want 0", tr.FreeAt(0, 1))
	}
}

func TestPlaceNilPanics(t *testing.T) {
	tr := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("PlaceAt(Nil) did not panic")
		}
	}()
	tr.PlaceAt(0, 0, mem.Nil)
}

func TestRemovePathOnlyTouchesPath(t *testing.T) {
	tr := New(3, 1)
	onPath := mem.MakeID(0, 1)
	offPath := mem.MakeID(0, 2)
	tr.PlaceAt(5, 3, onPath)
	tr.PlaceAt(2, 3, offPath) // leaf 2 is not on path 5
	got := tr.RemovePath(5, nil)
	if len(got) != 1 || got[0] != onPath {
		t.Fatalf("RemovePath(5) = %v", got)
	}
	if !tr.Contains(2, offPath) {
		t.Fatal("RemovePath removed an off-path block")
	}
}

func TestForEachVisitsEverything(t *testing.T) {
	tr := New(4, 3)
	r := rng.New(1)
	placed := map[mem.BlockID]bool{}
	for i := 0; i < 30; i++ {
		id := mem.MakeID(0, uint64(i))
		leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		depth := r.Intn(tr.Levels() + 1)
		if tr.PlaceAt(leaf, depth, id) {
			placed[id] = true
		}
	}
	seen := map[mem.BlockID]bool{}
	tr.ForEach(func(_ uint64, _ int, b Labeled) { seen[b.ID] = true })
	if len(seen) != len(placed) {
		t.Fatalf("ForEach saw %d blocks, placed %d", len(seen), len(placed))
	}
	for id := range placed {
		if !seen[id] {
			t.Fatalf("ForEach missed %v", id)
		}
	}
}

func TestPathBytes(t *testing.T) {
	tr := New(19, 3)
	// (19+1) * 3 * 128 = 7680 bytes one way.
	if got := tr.PathBytes(128); got != 7680 {
		t.Fatalf("PathBytes = %d, want 7680", got)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ levels, z int }{{0, 3}, {MaxLevels + 1, 3}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.levels, tc.z)
				}
			}()
			New(tc.levels, tc.z)
		}()
	}
}

// Property: placing at the deepest depth allowed by CommonDepth always
// preserves path membership for the block's own leaf.
func TestGreedyPlacementProperty(t *testing.T) {
	tr := New(5, 4)
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		accessLeaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		blockLeaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		d := tr.CommonDepth(accessLeaf, blockLeaf)
		id := mem.MakeID(0, uint64(i))
		if !tr.PlaceAt(accessLeaf, d, id) {
			continue // bucket full, fine
		}
		if !tr.Contains(blockLeaf, id) {
			t.Fatalf("block placed at common depth %d not on its own path (access %d, block %d)",
				d, accessLeaf, blockLeaf)
		}
	}
}

// A slot holds any block of a position map over at most MaxBlocks data
// blocks, and any label of a MaxLevels-deep tree, and gives both back; it
// refuses the first index and the first label past those bounds.
func TestSlotEncodingBounds(t *testing.T) {
	for level := 0; level <= 32; level++ {
		top := uint64(MaxBlocks)>>level - 1 // the largest index level holds
		for _, index := range []uint64{0, top / 3, top} {
			for _, leaf := range []mem.Leaf{0, 1, 1<<MaxLevels - 1} {
				id := mem.MakeID(level, index)
				s, ok := Pack(id, leaf)
				if !ok || s == 0 || s.Block() != id || s.Leaf() != leaf {
					t.Fatalf("%v at leaf %d packs to %#x (%v), unpacks to %v at %d", id, leaf, uint64(s), ok, s.Block(), s.Leaf())
				}
				other, _ := Pack(id, leaf^1)
				if s.Code() != other.Code() || s.Relabel(leaf^1) != other {
					t.Fatalf("%v: relabelling %d to %d changed the code", id, leaf, leaf^1)
				}
			}
		}
	}
	for _, c := range []struct {
		id   mem.BlockID
		leaf mem.Leaf
	}{
		{mem.MakeID(0, MaxBlocks), 0},
		{mem.MakeID(1, MaxBlocks/2), 0},
		{mem.MakeID(33, 0), 0},
		{mem.MakeID(0, 0), 1 << MaxLevels},
		{mem.MakeID(0, 0), mem.NoLeaf},
		{mem.Nil, 0},
	} {
		if s, ok := Pack(c.id, c.leaf); ok {
			t.Errorf("Pack(%v, %d) = %#x, want refused", c.id, c.leaf, uint64(s))
		}
	}
	s, _ := Pack(mem.MakeID(0, 0), 0)
	for _, leaf := range []mem.Leaf{1 << MaxLevels, mem.NoLeaf} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relabel(%d) did not panic", leaf)
				}
			}()
			s.Relabel(leaf)
		}()
	}
}

// The read phase returns each block's slot as it was placed, label
// included, root bucket first, and empties the path.
func TestRemovePathSlots(t *testing.T) {
	tr := New(4, 2)
	want := []Labeled{
		{mem.MakeID(2, 7), 0},  // root, under a label whose path is far from 9's
		{mem.MakeID(0, 3), 8},  // depth 3, shared by leaves 8 and 9
		{mem.MakeID(0, 4), 9},  // leaf bucket
		{mem.MakeID(1, 12), 9}, // leaf bucket, second slot
	}
	for i, b := range want {
		depth := tr.CommonDepth(9, b.Leaf)
		if i == 0 {
			depth = 0
		}
		if !tr.PlaceAt(b.Leaf, depth, b.ID) {
			t.Fatalf("PlaceAt(%+v) failed", b)
		}
	}
	head := []Slot{1} // the read appends
	got := tr.RemovePathSlots(9, head)
	if len(got) != 1+len(want) || got[0] != 1 {
		t.Fatalf("RemovePathSlots = %v, want %+v after the head", got, want)
	}
	for i, b := range want {
		if s := got[1+i]; s.Block() != b.ID || s.Leaf() != b.Leaf {
			t.Fatalf("RemovePathSlots[%d] = %v at %d, want %+v", i, s.Block(), s.Leaf(), b)
		}
	}
	if tr.Used() != 0 || len(tr.RemovePathSlots(9, nil)) != 0 {
		t.Fatal("the path is not empty after its read")
	}
}

// removePathRef is the read phase RemovePathSlots replaced, kept as its
// reference: it scans each bucket on the path, root first, moves its slots
// to dst and stops at the bucket's first empty slot.
func removePathRef(t *Tree, leaf mem.Leaf, dst []Slot) []Slot {
	n := len(dst)
	for depth := 0; depth <= t.levels; depth++ {
		bucket := t.bucket(t.NodeAt(leaf, depth))
		for i, s := range bucket {
			if s == 0 {
				break
			}
			dst = append(dst, s)
			bucket[i] = 0
		}
	}
	t.used -= uint64(len(dst) - n)
	return dst
}

// poison marks dst's spare capacity, so a read that returned a slot past
// what it moved would show it.
const poison = ^Slot(0)

// checkRemovePath reads paths of a random tree of the given geometry with
// RemovePathSlots and with its reference, on an equal copy, into a dst of
// head slots and spare more capacity, poisoned. Each read must return the
// head and then the reference's slots, slot for slot, empty every bucket on
// the path, and lower Used by the slots it moved; both trees stay equal.
// The last read repeats a path already read, which moves nothing.
func checkRemovePath(t *testing.T, levels, z int, seed uint64, head, spare int) {
	t.Helper()
	got, want := randomTree(levels, z, rng.New(seed)), randomTree(levels, z, rng.New(seed))
	r := rng.New(seed + 1)
	var leaf mem.Leaf
	for read := range 4 {
		if read < 3 {
			leaf = mem.Leaf(r.Uint64n(got.Leaves()))
		}
		dst := make([]Slot, head, head+spare)
		for i := range dst {
			dst[i] = Slot(i + 1)
		}
		full := dst[:cap(dst)]
		for i := head; i < len(full); i++ {
			full[i] = poison
		}
		used := got.Used()
		out := got.RemovePathSlots(leaf, dst)
		ref := removePathRef(want, leaf, slices.Clone(dst))
		if !slices.Equal(out, ref) {
			t.Fatalf("L %d Z %d seed %d head %d spare %d, read %d of leaf %d: got %v, reference %v",
				levels, z, seed, head, spare, read, leaf, out, ref)
		}
		for depth := 0; depth <= levels; depth++ {
			if n := got.BucketCount(got.NodeAt(leaf, depth)); n != 0 {
				t.Fatalf("L %d Z %d seed %d: bucket at depth %d of leaf %d holds %d blocks after its read",
					levels, z, seed, depth, leaf, n)
			}
		}
		if moved := uint64(len(out) - head); got.Used() != used-moved || got.Used() != want.Used() {
			t.Fatalf("L %d Z %d seed %d: Used %d after moving %d of %d, reference %d",
				levels, z, seed, got.Used(), moved, used, want.Used())
		}
		if !slices.Equal(got.slots, want.slots) {
			t.Fatalf("L %d Z %d seed %d: the trees differ after reading leaf %d", levels, z, seed, leaf)
		}
	}
}

// RemovePathSlots moves what the break-on-empty scan moved, in its order,
// on random trees of 1 to 12 levels and buckets of 1 to 5 slots, into a
// dst with no spare capacity, some, and enough for a whole path.
func TestRemovePathSlotsMatchesReference(t *testing.T) {
	for levels := 1; levels <= 12; levels++ {
		for z := 1; z <= 5; z++ {
			path := (levels + 1) * z
			for _, head := range []int{0, 3} {
				for _, spare := range []int{0, 1, path / 2, path, path + 7} {
					checkRemovePath(t, levels, z, uint64(levels*100+z*10+head), head, spare)
				}
			}
		}
	}
}

// FuzzRemovePathSlots is the same check over fuzzer-chosen geometries,
// trees, head lengths and spare capacities; the seeds hold one case per
// geometry.
func FuzzRemovePathSlots(f *testing.F) {
	for levels := uint8(1); levels <= 12; levels++ {
		for z := uint8(1); z <= 5; z++ {
			f.Add(levels, z, uint64(levels)*16+uint64(z), uint8(z), uint8(levels))
		}
	}
	f.Fuzz(func(t *testing.T, levels, z uint8, seed uint64, head, spare uint8) {
		checkRemovePath(t, 1+int(levels%12), 1+int(z%5), seed, int(head%16), int(spare))
	})
}

// fillAt is the write-back primitive EvictPath replaced, kept as its
// reference: it places blocks, in order, into the free slots of the one
// bucket at depth on the path to accessLeaf, first free slot first, and
// returns how many it placed.
func fillAt(t *Tree, accessLeaf mem.Leaf, depth int, blocks []Slot) int {
	bucket := t.bucket(t.NodeAt(accessLeaf, depth))
	free := bucket[fill(bucket):]
	n := min(len(free), len(blocks))
	copy(free, blocks[:n])
	t.used += uint64(n)
	return n
}

// randomTree fills a tree of the given geometry to about half its slots,
// each block in the deepest free bucket on the path of a random leaf.
func randomTree(levels, z int, r *rng.Source) *Tree {
	tr := New(levels, z)
	for i := uint64(0); i < tr.Capacity()/2; i++ {
		leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		for d := levels; d >= 0; d-- {
			if tr.PlaceAt(leaf, d, mem.MakeID(0, i)) {
				break
			}
		}
	}
	return tr
}

// EvictPath leaves every slot of the tree as the per-height FillAt loop
// over the blocks sorted by height did, places as many, and keeps the
// rest in stash order, on random trees and random stashes: stashes small
// and large, trees shallow and deep, with heights that have no run of
// their own below and between those that do.
func TestEvictPathMatchesFillAt(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 400; trial++ {
		levels, z := 1+r.Intn(7), 1+r.Intn(4)
		seed := r.Uint64()
		got, want := randomTree(levels, z, rng.New(seed)), randomTree(levels, z, rng.New(seed))
		accessLeaf := mem.Leaf(r.Uint64n(got.Leaves()))
		// A stash of fresh blocks at random leaves, and the same blocks
		// sorted stably by height above the leaf bucket.
		var stash []Slot
		runs := make([][]Slot, levels+1)
		for i := range r.Intn(4 * levels * z) {
			leaf := mem.Leaf(r.Uint64n(got.Leaves()))
			s, _ := Pack(mem.MakeID(1, uint64(i)), leaf)
			stash = append(stash, s)
			h := levels - got.CommonDepth(accessLeaf, leaf)
			runs[h] = append(runs[h], s)
		}
		var sorted []Slot
		ends := make([]int, levels+1)
		for h, run := range runs {
			sorted = append(sorted, run...)
			ends[h] = len(sorted)
		}
		head := 0
		for h, end := range ends {
			if head == end {
				continue
			}
			head += fillAt(want, accessLeaf, levels-h, sorted[head:end])
		}
		var wantKept []Slot
		for _, s := range stash {
			if !slices.Contains(sorted[:head], s) {
				wantKept = append(wantKept, s)
			}
		}

		kept, placed := got.EvictPath(accessLeaf, stash)
		if placed != head {
			t.Fatalf("trial %d: EvictPath placed %d blocks, FillAt %d", trial, placed, head)
		}
		if !slices.Equal(got.slots, want.slots) || got.Used() != want.Used() {
			t.Fatalf("trial %d (L=%d Z=%d, leaf %d, ends %v): EvictPath left a different tree", trial, levels, z, accessLeaf, ends)
		}
		if !slices.Equal(kept, wantKept) {
			t.Fatalf("trial %d: EvictPath kept %v, want %v", trial, kept, wantKept)
		}
	}
}

// Occupied slots stay a prefix of their bucket through placement, path
// reads and write-backs, and ForEach reports a planted hole as a skipped
// index.
func TestBucketsStayPrefixes(t *testing.T) {
	tr := New(5, 4)
	r := rng.New(3)
	next := uint64(0)
	for round := 0; round < 300; round++ {
		leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		if r.Intn(3) == 0 {
			tr.RemovePathSlots(leaf, nil)
			continue
		}
		// The blocks may go into the bucket at a random height or any
		// above it: their label parts from leaf at that height.
		label := leaf
		if lowest := r.Intn(tr.Levels() + 1); lowest > 0 {
			label ^= 1 << (lowest - 1)
		}
		var blocks []Slot
		for i := 0; i < 1+r.Intn(4); i++ {
			s, _ := Pack(mem.MakeID(0, next), label)
			blocks = append(blocks, s)
			next++
		}
		tr.EvictPath(leaf, blocks)
	}
	var bucket uint64
	slot := 0
	tr.ForEach(func(node uint64, i int, _ Labeled) {
		if node != bucket {
			bucket, slot = node, 0
		}
		if i != slot {
			t.Fatalf("bucket %d: occupied slot %d follows an empty one", node, i)
		}
		slot++
	})

	tr = New(2, 3)
	tr.PlaceAt(0, 0, mem.MakeID(0, 1))
	tr.PlaceAt(0, 0, mem.MakeID(0, 2))
	tr.slots[0] = 0 // plant a hole in the root bucket
	var seen []int
	tr.ForEach(func(_ uint64, i int, _ Labeled) { seen = append(seen, i) })
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("ForEach over a root with a hole at slot 0 visited slots %v, want [1]", seen)
	}
}

// Load reads every leaf of every geometry, down to a one-level tree and
// single-slot buckets, for every bucket count from none to more than a path
// holds, and changes nothing.
func TestLoadChangesNothing(t *testing.T) {
	for _, g := range []struct{ levels, z int }{{1, 1}, {1, 3}, {2, 1}, {4, 3}} {
		tr := New(g.levels, g.z)
		r := rng.New(uint64(g.levels*10 + g.z))
		for i := uint64(0); i < tr.Capacity()/2; i++ {
			leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
			for d := g.levels; d >= 0; d-- {
				if tr.PlaceAt(leaf, d, mem.MakeID(0, i)) {
					break
				}
			}
		}
		before, used := append([]Slot(nil), tr.slots...), tr.Used()
		leaves := make([]mem.Leaf, tr.Leaves())
		for i := range leaves {
			leaves[i] = mem.Leaf(i)
		}
		for buckets := range g.levels + 3 {
			tr.Load(buckets, leaves...)
			tr.Load(buckets)
		}
		if tr.Used() != used || !slices.Equal(tr.slots, before) {
			t.Errorf("levels %d z %d: Load changed the tree", g.levels, g.z)
		}
	}
}

// placeOneAtATime is PlaceAll's reference: each block in turn goes into the
// deepest bucket on its path that takes it (PlaceAt from the leaf depth
// up), and the blocks no bucket takes are collected in input order.
func placeOneAtATime(t *Tree, blocks []Slot) (over []Slot) {
	for _, s := range blocks {
		placed := false
		for d := t.levels; d >= 0 && !placed; d-- {
			placed = t.PlaceAt(s.Leaf(), d, s.Block())
		}
		if !placed {
			over = append(over, s)
		}
	}
	return over
}

// levelBlocks packs the blocks of hierarchy level level with indices 0, 1,
// ... under the given leaves: PlaceAll's input, in increasing Code order.
func levelBlocks(level int, leaves []mem.Leaf) []Slot {
	blocks := make([]Slot, len(leaves))
	for i, leaf := range leaves {
		blocks[i], _ = Pack(mem.MakeID(level, uint64(i)), leaf)
	}
	return blocks
}

type visited struct {
	node uint64
	i    int
	b    Labeled
}

func forEachStream(t *Tree) []visited {
	var out []visited
	t.ForEach(func(node uint64, i int, b Labeled) { out = append(out, visited{node, i, b}) })
	return out
}

// checkPlaceAll places each call's blocks, one call per hierarchy level,
// into a tree of the given geometry with PlaceAll and into another with
// the one-at-a-time reference, and fails unless both leave the same tree,
// the same slot count and the same leftovers after every call.
func checkPlaceAll(t *testing.T, levels, z int, calls [][]Slot) {
	t.Helper()
	got, want := New(levels, z), New(levels, z)
	var buf []Slot
	head := Slot(1) // PlaceAll appends to dst
	for call, blocks := range calls {
		in := slices.Clone(blocks)
		var over []Slot
		over, buf = got.PlaceAll(blocks, []Slot{head}, buf)
		wantOver := placeOneAtATime(want, blocks)
		if !slices.Equal(blocks, in) {
			t.Fatalf("L=%d Z=%d call %d: PlaceAll changed its input", levels, z, call)
		}
		if len(over) == 0 || over[0] != head || !slices.Equal(over[1:], wantOver) {
			t.Fatalf("L=%d Z=%d call %d (%d blocks): leftovers %v, want %v after the head", levels, z, call, len(blocks), over, wantOver)
		}
		if got.Used() != want.Used() {
			t.Fatalf("L=%d Z=%d call %d: Used = %d, want %d", levels, z, call, got.Used(), want.Used())
		}
		if g, w := forEachStream(got), forEachStream(want); !slices.Equal(g, w) {
			t.Fatalf("L=%d Z=%d call %d (%d blocks): PlaceAll left a different tree", levels, z, call, len(blocks))
		}
	}
}

// PlaceAll leaves the tree, the slot count and the leftovers of placing
// each block in turn: on trees shallower than the split (where it covers
// the whole tree) and deeper, at every bucket size, from an eighth of the
// tree's capacity to twice it (so leftovers compete for the top levels and
// spill), on a tree an earlier level already partly filled, and with every
// block on one leaf.
func TestPlaceAllMatchesOneAtATime(t *testing.T) {
	r := rng.New(42)
	randLeaves := func(n uint64, leaves uint64) []mem.Leaf {
		out := make([]mem.Leaf, n)
		for i := range out {
			out[i] = mem.Leaf(r.Uint64n(leaves))
		}
		return out
	}
	for levels := 1; levels <= 12; levels++ {
		for z := 1; z <= 4; z++ {
			capacity := New(levels, z).Capacity()
			leaves := uint64(1) << levels
			for _, eighths := range []uint64{1, 2, 4, 8, 12, 16} {
				n := max(capacity*eighths/8, 1)
				// The data level, then a position-map level of a quarter
				// as many blocks on the tree it left.
				checkPlaceAll(t, levels, z, [][]Slot{
					levelBlocks(0, randLeaves(n, leaves)),
					levelBlocks(1, randLeaves(n/4+1, leaves)),
				})
			}
			one := make([]mem.Leaf, 2*(levels+1)*z)
			for i := range one {
				one[i] = mem.Leaf(leaves - 1)
			}
			checkPlaceAll(t, levels, z, [][]Slot{
				levelBlocks(0, randLeaves(capacity/2, leaves)),
				levelBlocks(1, one),
			})
		}
	}
	checkPlaceAll(t, 3, 2, [][]Slot{nil, levelBlocks(1, []mem.Leaf{5})})
}

// PlaceAll refuses blocks out of Code order and labels past the last leaf.
func TestPlaceAllPanicsOnBadInput(t *testing.T) {
	a, _ := Pack(mem.MakeID(0, 1), 0)
	b, _ := Pack(mem.MakeID(0, 2), 3)
	far, _ := Pack(mem.MakeID(0, 3), 8)
	for name, blocks := range map[string][]Slot{
		"descending": {b, a},
		"duplicate":  {a, a},
		"empty slot": {0},
		"past leaf":  {a, far},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PlaceAll did not panic", name)
				}
			}()
			New(3, 2).PlaceAll(blocks, nil, nil)
		}()
	}
}

// FuzzPlaceAll holds PlaceAll to the one-at-a-time reference on trees of
// up to 12 levels and bucket sizes 1 to 4. The first call places n blocks
// at leaves drawn from seed; then data is read in triples (leaf high byte,
// leaf low byte, count): a count of 255 starts the next call, at the next
// hierarchy level, and any other count adds count%8+1 blocks on that leaf.
func FuzzPlaceAll(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint64(1), uint16(9), []byte{})
	f.Add(uint8(3), uint8(2), uint64(2), uint16(40), []byte{0, 5, 7, 0, 0, 255, 0, 5, 7, 0, 1, 3})
	f.Add(uint8(9), uint8(3), uint64(3), uint16(3000), []byte{1, 2, 7, 1, 2, 7, 255, 0, 0, 0, 255, 9, 9, 9})
	f.Add(uint8(11), uint8(0), uint64(4), uint16(60000), []byte{7, 255, 6, 0, 0, 255})
	f.Fuzz(func(t *testing.T, levels, z uint8, seed uint64, n uint16, data []byte) {
		L, Z := 1+int(levels%12), 1+int(z%4)
		tr := New(L, Z)
		n %= uint16(min(2*tr.Capacity()+1, 1<<16-1))
		r := rng.New(seed)
		first := make([]mem.Leaf, n)
		for i := range first {
			first[i] = mem.Leaf(r.Uint64n(tr.Leaves()))
		}
		calls := [][]Slot{levelBlocks(0, first)}
		var leaves []mem.Leaf
		for i := 0; i+2 < len(data) && len(calls) < 8; i += 3 {
			if data[i+2] == 255 {
				calls = append(calls, levelBlocks(len(calls), leaves))
				leaves = leaves[:0]
				continue
			}
			leaf := mem.Leaf((uint64(data[i])<<8 | uint64(data[i+1])) % tr.Leaves())
			for range data[i+2]%8 + 1 {
				leaves = append(leaves, leaf)
			}
		}
		calls = append(calls, levelBlocks(len(calls), leaves))
		checkPlaceAll(t, L, Z, calls)
	})
}
