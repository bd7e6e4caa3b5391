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
				b := Labeled{ID: mem.MakeID(level, index), Leaf: leaf}
				s := pack(b.ID, b.Leaf)
				if s == 0 || s.block() != b {
					t.Fatalf("%v at leaf %d packs to %#x, unpacks to %+v", b.ID, leaf, uint64(s), s.block())
				}
			}
		}
	}
	refused := func(id mem.BlockID, leaf mem.Leaf) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("pack(%v, %d) did not panic", id, leaf)
			}
		}()
		pack(id, leaf)
	}
	refused(mem.MakeID(0, MaxBlocks), 0)
	refused(mem.MakeID(1, MaxBlocks/2), 0)
	refused(mem.MakeID(33, 0), 0)
	refused(mem.MakeID(0, 0), 1<<MaxLevels)
	refused(mem.Nil, 0)
}

// The read phase returns each block with the label it was placed under,
// root bucket first, and empties the path.
func TestRemovePathLabeled(t *testing.T) {
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
	got := tr.RemovePathLabeled(9, nil)
	if len(got) != len(want) {
		t.Fatalf("RemovePathLabeled = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RemovePathLabeled[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if tr.Used() != 0 || len(tr.RemovePathLabeled(9, nil)) != 0 {
		t.Fatal("the path is not empty after its read")
	}
}

// Occupied slots stay a prefix of their bucket through placement, path
// reads and refills, and ForEach reports a planted hole as a skipped index.
func TestBucketsStayPrefixes(t *testing.T) {
	tr := New(5, 4)
	r := rng.New(3)
	next := uint64(0)
	for round := 0; round < 300; round++ {
		leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		if r.Intn(3) == 0 {
			tr.RemovePathLabeled(leaf, nil)
			continue
		}
		var blocks []Labeled
		for i := 0; i < 1+r.Intn(4); i++ {
			blocks = append(blocks, Labeled{mem.MakeID(0, next), leaf})
			next++
		}
		tr.FillAt(leaf, r.Intn(tr.Levels()+1), blocks)
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

// Load reads every leaf of every geometry, down to a one-level tree with no
// grandparent and single-slot buckets, and changes nothing.
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
		before, used := append([]slot(nil), tr.slots...), tr.Used()
		leaves := make([]mem.Leaf, tr.Leaves())
		for i := range leaves {
			leaves[i] = mem.Leaf(i)
		}
		tr.Load(leaves...)
		tr.Load()
		if tr.Used() != used || !slices.Equal(tr.slots, before) {
			t.Errorf("levels %d z %d: Load changed the tree", g.levels, g.z)
		}
	}
}
