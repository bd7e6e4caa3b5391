package posmap

import (
	"testing"
	"unsafe"

	"proram/internal/mem"
)

func mustNew(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchySizing(t *testing.T) {
	// 2^20 data blocks, fanout 32, on-chip 2048:
	// level1 = 2^15, level2 = 2^10 = 1024 <= 2048 -> depth 2.
	h := mustNew(t, Config{NumBlocks: 1 << 20, Fanout: 32, OnChipMax: 2048})
	if h.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", h.Depth())
	}
	if h.Count(0) != 1<<20 || h.Count(1) != 1<<15 || h.Count(2) != 1<<10 {
		t.Fatalf("counts = %d/%d/%d", h.Count(0), h.Count(1), h.Count(2))
	}
	if h.TotalBlocks() != (1<<20)+(1<<15)+(1<<10) {
		t.Fatalf("TotalBlocks = %d", h.TotalBlocks())
	}
}

func TestPaperScaleHierarchy(t *testing.T) {
	// The paper's 8GB / 128B config: 2^26 blocks, fanout 32, on-chip a few
	// thousand entries -> 3 posmap levels, i.e. 4 ORAM hierarchies total.
	h := mustNew(t, Config{NumBlocks: 1 << 26, Fanout: 32, OnChipMax: 4096})
	if h.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3 (4 hierarchies incl. data)", h.Depth())
	}
	if h.Count(3) != 1<<11 {
		t.Fatalf("top level count = %d, want 2048", h.Count(3))
	}
}

func TestNonPowerOfTwoSizing(t *testing.T) {
	h := mustNew(t, Config{NumBlocks: 100, Fanout: 32, OnChipMax: 2})
	// 100 -> 4 -> 1... 4 > 2 so recurse: depth levels: counts 100, 4, 1.
	if h.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", h.Depth())
	}
	// Last level-1 block covers 100 - 3*32 = 4 children.
	if got := len(h.Block(1, 3).Entries); got != 4 {
		t.Fatalf("last block entries = %d, want 4", got)
	}
	if got := len(h.Block(2, 0).Entries); got != 4 {
		t.Fatalf("top block entries = %d, want 4", got)
	}
}

func TestEntryForAndParent(t *testing.T) {
	h := mustNew(t, Config{NumBlocks: 1 << 10, Fanout: 32, OnChipMax: 32})
	pi, slot := h.Parent(0, 100)
	if pi != 3 || slot != 4 {
		t.Fatalf("Parent(0,100) = %d,%d; want 3,4", pi, slot)
	}
	e := h.EntryFor(0, 100)
	if e.Label() != mem.NoLeaf || e.Size() != 1 {
		t.Fatalf("fresh entry = %+v", e)
	}
	e.SetLabel(42)
	if h.Block(1, 3).Entries[4].Label() != 42 {
		t.Fatal("EntryFor did not return a pointer into the block")
	}
}

// TestEntryLayout pins the packed encoding: 8 bytes, the zero Entry is the
// never-touched child, and the widest label a 31-level tree draws fits.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 8 {
		t.Fatalf("Entry is %d bytes, want 8", got)
	}
	b := Block{Entries: make([]Entry, 1)}
	e := &b.Entries[0]
	if e.Label() != mem.NoLeaf || e.Size() != 1 || e.Prefetch || b.MergeCounter(0) != 0 || b.BreakCounter(0) != 0 {
		t.Fatalf("zero entry decodes as leaf %d size %d prefetch %v counters %d/%d",
			e.Label(), e.Size(), e.Prefetch, b.MergeCounter(0), b.BreakCounter(0))
	}
	for _, leaf := range []mem.Leaf{0, 1, 1<<25 - 1, 1<<31 - 1} {
		if e.SetLabel(leaf); e.Label() != leaf {
			t.Fatalf("label %d reads back as %d", leaf, e.Label())
		}
	}
	for _, n := range []int{1, 2, 32, 256} {
		if e.SetSize(n); e.Size() != n {
			t.Fatalf("size %d reads back as %d", n, e.Size())
		}
	}
	e.SetSize(1)
	if e.SetLabel(mem.NoLeaf); *e != (Entry{}) {
		t.Fatalf("unmapped singleton is %+v, want the zero entry", *e)
	}
	defer func() {
		if recover() == nil {
			t.Error("a label wider than an entry was stored truncated")
		}
	}()
	e.SetLabel(1 << 32)
}

// TestNoPerBlockObjects pins construction and lookup: New allocates a
// handful of arrays whatever NumBlocks is, and the lookups allocate nothing.
func TestNoPerBlockObjects(t *testing.T) {
	cfg := Config{NumBlocks: 1 << 20, Fanout: 32, OnChipMax: 2048}
	if n := testing.AllocsPerRun(3, func() { mustNew(t, cfg) }); n > 12 {
		t.Errorf("New allocates %v objects for 2^20 blocks, want a constant handful", n)
	}
	h := mustNew(t, cfg)
	var sink mem.Leaf
	n := testing.AllocsPerRun(100, func() {
		sink += h.EntryFor(0, 12345).Label() + h.EntryFor(1, 7).Label()
		sink += h.Block(1, 385).Entries[25].Label() + h.TopLeaf(3)
	})
	if n != 0 {
		t.Errorf("EntryFor/Block allocate %v objects per lookup, want 0", n)
	}
	_ = sink
}

func TestTopLeafRoundTrip(t *testing.T) {
	h := mustNew(t, Config{NumBlocks: 1 << 10, Fanout: 32, OnChipMax: 32})
	if h.TopLeaf(0) != mem.NoLeaf {
		t.Fatal("fresh top leaf assigned")
	}
	h.SetTopLeaf(0, 7)
	if h.TopLeaf(0) != 7 {
		t.Fatal("SetTopLeaf lost update")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumBlocks: 0, Fanout: 32, OnChipMax: 8},
		{NumBlocks: 10, Fanout: 1, OnChipMax: 8},
		{NumBlocks: 10, Fanout: 32, OnChipMax: 0},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestCounters(t *testing.T) {
	h := mustNew(t, Config{NumBlocks: 64, Fanout: 32, OnChipMax: 2})
	b := h.Block(1, 0)
	if b.MergeCounter(0) != 0 {
		t.Fatal("fresh merge counter nonzero")
	}
	if got := b.AddMergeCounter(0, 3); got != 3 {
		t.Fatalf("AddMergeCounter = %d", got)
	}
	if got := b.AddMergeCounter(0, -10); got != 0 {
		t.Fatalf("merge counter went negative: %d", got)
	}
	for i := 0; i < 300; i++ {
		b.AddMergeCounter(0, 1)
	}
	if b.MergeCounter(0) != 255 {
		t.Fatalf("merge counter did not saturate: %d", b.MergeCounter(0))
	}
	b.ResetMergeCounter(0)
	if b.MergeCounter(0) != 0 {
		t.Fatal("ResetMergeCounter failed")
	}

	b.SetBreakCounter(4, 4)
	if b.BreakCounter(4) != 4 || b.BreakCounter(0) != 0 {
		t.Fatalf("break counters = %d,%d, want 4,0", b.BreakCounter(4), b.BreakCounter(0))
	}
}

func TestGroupHelpers(t *testing.T) {
	cases := []struct {
		o, n                  int
		start, neighbor, pair int
	}{
		{5, 1, 5, 4, 4},
		{4, 1, 4, 5, 4},
		{6, 2, 6, 4, 4},
		{4, 2, 4, 6, 4},
		{8, 4, 8, 12, 8},
		{12, 4, 12, 8, 8},
		{0, 1, 0, 1, 0},
	}
	for _, c := range cases {
		if got := GroupStart(c.o, c.n); got != c.start {
			t.Errorf("GroupStart(%d,%d) = %d, want %d", c.o, c.n, got, c.start)
		}
		if got := NeighborStart(c.o, c.n); got != c.neighbor {
			t.Errorf("NeighborStart(%d,%d) = %d, want %d", c.o, c.n, got, c.neighbor)
		}
		if got := PairStart(c.o, c.n); got != c.pair {
			t.Errorf("PairStart(%d,%d) = %d, want %d", c.o, c.n, got, c.pair)
		}
	}
}

func TestBlockID(t *testing.T) {
	h := mustNew(t, Config{NumBlocks: 64, Fanout: 32, OnChipMax: 2})
	b := h.Block(1, 1)
	if b.ID() != mem.MakeID(1, 1) {
		t.Fatalf("ID = %v", b.ID())
	}
}

func TestPLBBasics(t *testing.T) {
	p := NewPLB(2)
	a, b, c := mem.MakeID(1, 0), mem.MakeID(1, 1), mem.MakeID(1, 2)
	if p.Lookup(a) {
		t.Fatal("empty PLB hit")
	}
	if _, ok := p.Insert(a); ok {
		t.Fatal("insert into empty PLB evicted")
	}
	if !p.Lookup(a) {
		t.Fatal("PLB missed cached block")
	}
	p.Insert(b) // order: b (MRU), a (LRU)
	// Inserting c overflows: the LRU, a, comes back to the caller.
	victim, ok := p.Insert(c)
	if !ok || victim != a {
		t.Fatalf("eviction = %v ok=%v, want a", victim, ok)
	}
	if p.Contains(a) || !p.Contains(b) || !p.Contains(c) || p.Len() != 2 {
		t.Fatalf("after evicting a: a=%v b=%v c=%v len=%d", p.Contains(a), p.Contains(b), p.Contains(c), p.Len())
	}
	// A hit promotes: b becomes MRU, so the next victim is c.
	p.Lookup(b)
	victim, ok = p.Insert(mem.MakeID(1, 3))
	if !ok || victim != c {
		t.Fatalf("eviction = %v ok=%v, want c", victim, ok)
	}
}

func TestPLBStats(t *testing.T) {
	p := NewPLB(4)
	a := mem.MakeID(1, 0)
	p.Lookup(a)
	p.Insert(a)
	p.Lookup(a)
	if p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", p.Hits(), p.Misses())
	}
	if p.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", p.HitRate())
	}
}

func TestPLBDisabled(t *testing.T) {
	p := NewPLB(0)
	a := mem.MakeID(1, 0)
	victim, ok := p.Insert(a)
	if ok || !victim.IsNil() {
		t.Fatal("disabled PLB must ignore inserts without producing victims")
	}
	if p.Lookup(a) {
		t.Fatal("disabled PLB hit")
	}
	if p.Len() != 0 {
		t.Fatal("disabled PLB cached a block")
	}
}

func TestPLBReinsertDoesNotGrow(t *testing.T) {
	p := NewPLB(2)
	a := mem.MakeID(1, 0)
	b := mem.MakeID(1, 1)
	p.Insert(a)
	p.Insert(b)
	if victim, ok := p.Insert(a); ok || p.Len() != 2 {
		t.Fatalf("re-insert at capacity: victim %v ok=%v, Len = %d", victim, ok, p.Len())
	}
	// The re-insert promoted a, so b is the next victim.
	if victim, ok := p.Insert(mem.MakeID(1, 2)); !ok || victim != b {
		t.Fatalf("eviction after re-insert = %v ok=%v, want b", victim, ok)
	}
}
