package stash

import (
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
	"proram/internal/tree"
)

func id(i uint64) mem.BlockID { return mem.MakeID(0, i) }

func mustNew(t *testing.T, limit int) *Stash {
	t.Helper()
	s, err := New(limit)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAdd(t *testing.T, s *Stash, id mem.BlockID, leaf mem.Leaf) {
	t.Helper()
	if err := s.Add(id, leaf); err != nil {
		t.Fatal(err)
	}
}

// leafOf reads a stashed block's leaf the only way the package offers:
// through ForEach.
func leafOf(s *Stash, want mem.BlockID) (leaf mem.Leaf, ok bool) {
	s.ForEach(func(id mem.BlockID, l mem.Leaf) {
		if id == want {
			leaf, ok = l, true
		}
	})
	return leaf, ok
}

func TestAddRemoveContains(t *testing.T) {
	s := mustNew(t, 10)
	mustAdd(t, s, id(1), 5)
	if !s.Contains(id(1)) || s.Size() != 1 {
		t.Fatal("Add/Contains broken")
	}
	if leaf, ok := leafOf(s, id(1)); !ok || leaf != 5 {
		t.Fatalf("Leaf = %d,%v", leaf, ok)
	}
	if !s.Remove(id(1)) {
		t.Fatal("Remove returned false for present block")
	}
	if s.Contains(id(1)) || s.Size() != 0 {
		t.Fatal("Remove did not remove")
	}
	if s.Remove(id(1)) {
		t.Fatal("Remove returned true for absent block")
	}
}

func TestDuplicateAddErrors(t *testing.T) {
	s := mustNew(t, 10)
	mustAdd(t, s, id(1), 0)
	if err := s.Add(id(1), 1); err == nil {
		t.Fatal("duplicate Add did not error")
	}
	if err := s.Add(mem.Nil, 0); err == nil {
		t.Fatal("Add of nil block did not error")
	}
	if leaf, _ := leafOf(s, id(1)); leaf != 0 {
		t.Fatalf("failed Add changed leaf to %d", leaf)
	}
}

func TestSetLeaf(t *testing.T) {
	s := mustNew(t, 10)
	mustAdd(t, s, id(1), 5)
	if !s.SetLeaf(id(1), 9) {
		t.Fatal("SetLeaf failed for present block")
	}
	if leaf, _ := leafOf(s, id(1)); leaf != 9 {
		t.Fatalf("leaf after SetLeaf = %d", leaf)
	}
	if s.SetLeaf(id(2), 0) {
		t.Fatal("SetLeaf succeeded for absent block")
	}
}

func TestHighWaterAndOverLimit(t *testing.T) {
	s := mustNew(t, 3)
	for i := uint64(0); i < 5; i++ {
		mustAdd(t, s, id(i), 0)
	}
	if !s.OverLimit() {
		t.Fatal("stash of 5/3 not over limit")
	}
	if s.HighWater() != 5 {
		t.Fatalf("HighWater = %d, want 5", s.HighWater())
	}
	s.Remove(id(0))
	s.Remove(id(1))
	if s.OverLimit() {
		t.Fatal("stash of 3/3 reported over limit")
	}
	if s.HighWater() != 5 {
		t.Fatal("HighWater decreased")
	}
}

func TestForEachInsertionOrder(t *testing.T) {
	s := mustNew(t, 100)
	for i := uint64(0); i < 50; i++ {
		mustAdd(t, s, id(i), mem.Leaf(i))
	}
	s.Remove(id(10))
	s.Remove(id(20))
	var got []uint64
	s.ForEach(func(b mem.BlockID, _ mem.Leaf) { got = append(got, b.Index()) })
	if len(got) != 48 {
		t.Fatalf("ForEach visited %d, want 48", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("ForEach order not insertion order: %v", got)
		}
	}
}

func TestEvictToPathPlacesDeepFirst(t *testing.T) {
	tr := tree.New(3, 2)
	s := mustNew(t, 100)
	// A block mapped to the access leaf itself should land in the leaf bucket.
	mustAdd(t, s, id(1), 5)
	n := s.EvictToPath(tr, 5)
	if n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	leafNode := tr.NodeAt(5, 3)
	if tr.BucketCount(leafNode) != 1 {
		t.Fatal("block mapped to access leaf not placed in leaf bucket")
	}
}

func TestEvictToPathRespectsCommonDepth(t *testing.T) {
	tr := tree.New(3, 4)
	s := mustNew(t, 100)
	// Leaf 0 and leaf 7 share only the root.
	mustAdd(t, s, id(1), 7)
	if n := s.EvictToPath(tr, 0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if tr.BucketCount(tr.NodeAt(0, 0)) != 1 {
		t.Fatal("opposite-half block not placed at root")
	}
	// The block must still be on its own path.
	if !tr.Contains(7, id(1)) {
		t.Fatal("evicted block violated its path invariant")
	}
}

func TestEvictToPathLeavesUnplaceable(t *testing.T) {
	tr := tree.New(2, 1)
	s := mustNew(t, 100)
	// Fill the root with another block; leaf-3 blocks on path 0 can only
	// go to the root, so one of them must stay stashed.
	mustAdd(t, s, id(1), 3)
	mustAdd(t, s, id(2), 3)
	n := s.EvictToPath(tr, 0)
	if n != 1 {
		t.Fatalf("evicted %d, want 1 (root has Z=1)", n)
	}
	if s.Size() != 1 {
		t.Fatalf("stash size %d, want 1", s.Size())
	}
}

func TestEvictEverythingOnOwnPath(t *testing.T) {
	tr := tree.New(4, 4)
	s := mustNew(t, 100)
	// All blocks mapped to the access leaf; path capacity is (4+1)*4 = 20.
	for i := uint64(0); i < 20; i++ {
		mustAdd(t, s, id(i), 9)
	}
	if n := s.EvictToPath(tr, 9); n != 20 {
		t.Fatalf("evicted %d, want 20", n)
	}
	if s.Size() != 0 {
		t.Fatal("stash not empty after full eviction")
	}
}

func TestEvictionDeterminism(t *testing.T) {
	run := func() []uint64 {
		tr := tree.New(5, 2)
		s := mustNew(t, 100)
		r := rng.New(42)
		for i := uint64(0); i < 40; i++ {
			mustAdd(t, s, id(i), mem.Leaf(r.Uint64n(tr.Leaves())))
		}
		s.EvictToPath(tr, 11)
		var left []uint64
		s.ForEach(func(b mem.BlockID, _ mem.Leaf) { left = append(left, b.Index()) })
		return left
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic eviction: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic eviction at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: after eviction, every block in the tree lies on the path of the
// leaf it is mapped to (the Path ORAM invariant), and no bucket exceeds Z.
func TestEvictionInvariant(t *testing.T) {
	tr := tree.New(6, 3)
	s := mustNew(t, 1000)
	r := rng.New(7)
	leafOf := map[mem.BlockID]mem.Leaf{}
	next := uint64(0)
	for round := 0; round < 50; round++ {
		// Add a few random blocks.
		for i := 0; i < 10; i++ {
			b := id(next)
			next++
			leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
			mustAdd(t, s, b, leaf)
			leafOf[b] = leaf
		}
		access := mem.Leaf(r.Uint64n(tr.Leaves()))
		s.EvictToPath(tr, access)
		tr.ForEach(func(node uint64, b mem.BlockID) {
			if !tr.Contains(leafOf[b], b) {
				t.Fatalf("round %d: block %v mapped to %d not on its path", round, b, leafOf[b])
			}
		})
		for n := uint64(1); n <= tr.Buckets(); n++ {
			if c := tr.BucketCount(n); c > tr.Z() {
				t.Fatalf("bucket %d holds %d > Z", n, c)
			}
		}
	}
}

func TestCompaction(t *testing.T) {
	s := mustNew(t, 10000)
	for i := uint64(0); i < 1000; i++ {
		mustAdd(t, s, id(i), 0)
	}
	for i := uint64(0); i < 990; i++ {
		s.Remove(id(i))
	}
	if len(s.order) > 64 && len(s.order) >= 2*s.Size() {
		t.Fatalf("compaction failed: order len %d for %d live", len(s.order), s.Size())
	}
	// Remaining blocks still reachable.
	for i := uint64(990); i < 1000; i++ {
		if !s.Contains(id(i)) {
			t.Fatalf("lost block %d after compaction", i)
		}
	}
}

func TestNewRejectsBadLimit(t *testing.T) {
	for _, limit := range []int{0, -1} {
		if _, err := New(limit); err == nil {
			t.Fatalf("New(%d) did not error", limit)
		}
	}
}

// The write-back path must not allocate once its buffers are warm: a
// path's worth of Adds, a remap and the eviction reuse the order slice,
// the table, the depth buckets and the carry list — also when the eviction
// ends in a compaction. (Reslicing carry from the front, as this code once
// did, gave its capacity away and reallocated it on almost every access.)
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	tr := tree.New(10, 3)
	s := mustNew(t, 100)
	r := rng.New(5)
	// Half-fill the tree, every block on the path of its leaf.
	leafOf := make([]mem.Leaf, tr.Capacity()/2)
	for i := range leafOf {
		leafOf[i] = mem.Leaf(r.Uint64n(tr.Leaves()))
		for depth := tr.Levels(); depth >= 0; depth-- {
			if tr.PlaceAt(leafOf[i], depth, id(uint64(i))) {
				break
			}
		}
	}
	var buf []mem.BlockID
	compactions := 0
	access := func() {
		leaf := mem.Leaf(r.Uint64n(tr.Leaves()))
		buf = tr.RemovePath(leaf, buf[:0])
		for _, b := range buf {
			if err := s.Add(b, leafOf[b.Index()]); err != nil {
				t.Fatal(err)
			}
		}
		if len(buf) > 0 {
			victim := buf[r.Intn(len(buf))]
			leafOf[victim.Index()] = mem.Leaf(r.Uint64n(tr.Leaves()))
			if !s.SetLeaf(victim, leafOf[victim.Index()]) {
				t.Fatalf("SetLeaf lost %v", victim)
			}
		}
		before := len(s.order)
		s.EvictToPath(tr, leaf)
		if len(s.order) < before {
			compactions++
		}
	}
	for i := 0; i < 2000; i++ {
		access() // warm-up: buffers reach their steady capacity
	}
	compactions = 0
	if avg := testing.AllocsPerRun(500, access); avg != 0 {
		t.Fatalf("steady-state path access allocates %.2f times", avg)
	}
	if compactions == 0 {
		t.Fatal("the measured accesses never compacted; the test lost its coverage")
	}
}
