package cache

import (
	"testing"

	"proram/internal/rng"
)

func smallConfig() Config {
	return Config{SizeBytes: 1024, Ways: 2, LineBytes: 128} // 4 sets
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 2, LineBytes: 128},
		{SizeBytes: 1024, Ways: 0, LineBytes: 128},
		{SizeBytes: 1000, Ways: 2, LineBytes: 128}, // not divisible
		{SizeBytes: 1536, Ways: 2, LineBytes: 128}, // 6 sets: not power of 2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if got := (Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 128}).Sets(); got != 64 {
		t.Fatalf("Table 1 L1 sets = %d, want 64", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(smallConfig())
	if hit, _ := c.Access(5, false); hit {
		t.Fatal("cold cache hit")
	}
	c.Insert(5, false, false)
	if hit, _ := c.Access(5, false); !hit {
		t.Fatal("inserted line missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("stats %d/%d", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallConfig()) // 4 sets, 2 ways; indices 0,4,8 share set 0
	c.Insert(0, false, false)
	c.Insert(4, false, false)
	c.Access(0, false) // 0 becomes MRU; 4 is LRU
	v := c.Insert(8, false, false)
	if !v.Valid || v.Index != 4 {
		t.Fatalf("victim %+v, want index 4", v)
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0, false, false)
	c.Access(0, true) // write
	c.Insert(4, false, false)
	v := c.Insert(8, false, false) // evicts 0 (LRU after 4's insert? no: 0 promoted by Access, then 4 inserted MRU, so LRU=0)
	if !v.Valid {
		t.Fatal("no victim")
	}
	if v.Index == 0 && !v.Dirty {
		t.Fatal("dirty bit lost on eviction")
	}
}

func TestPrefetchFlagsLifecycle(t *testing.T) {
	c := New(smallConfig())
	c.Insert(3, false, true) // prefetched
	hit, firstUse := c.Access(3, false)
	if !hit || !firstUse {
		t.Fatalf("first use not reported: hit=%v firstUse=%v", hit, firstUse)
	}
	_, again := c.Access(3, false)
	if again {
		t.Fatal("second use reported as first")
	}
}

func TestPrefetchedUnusedVictim(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0, false, true)
	c.Insert(4, false, false)
	c.Access(4, false)
	v := c.Insert(8, false, false) // evicts 0
	if !v.Valid || v.Index != 0 || !v.Prefetched || v.Used {
		t.Fatalf("victim %+v, want prefetched-unused 0", v)
	}
}

func TestProbeDoesNotPromote(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0, false, false)
	c.Insert(4, false, false) // LRU = 0
	c.Probe(0)                // must not promote
	v := c.Insert(8, false, false)
	if v.Index != 0 {
		t.Fatalf("Probe promoted: victim %+v", v)
	}
}

// TestReinsertMergesFlags: a demand write fill of a prefetched line merges
// into it, so the line turns dirty and its prefetch counts as used, and
// both leave with it when it is evicted.
func TestReinsertMergesFlags(t *testing.T) {
	c := New(smallConfig())  // indices 0, 4 and 8 share set 0
	c.Insert(0, false, true) // prefetched
	c.Insert(0, true, false) // demand write fill of the same line
	if v := c.Insert(4, false, false); v.Valid {
		t.Fatalf("fill into a free way evicted %+v", v)
	}
	v := c.Insert(8, false, false) // 0 is the LRU way now
	if want := (Victim{Index: 0, Valid: true, Dirty: true, Prefetched: true, Used: true}); v != want {
		t.Fatalf("victim %+v, want %+v", v, want)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0, true, false)
	v := c.Invalidate(0)
	if !v.Valid || !v.Dirty {
		t.Fatalf("Invalidate returned %+v", v)
	}
	if c.Probe(0) {
		t.Fatal("line survived Invalidate")
	}
	if v := c.Invalidate(0); v.Valid {
		t.Fatal("double Invalidate returned valid")
	}
}

func TestFlushReturnsAll(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0, true, false)
	c.Insert(1, false, true)
	vs := c.Flush()
	if len(vs) != 2 {
		t.Fatalf("Flush returned %d victims", len(vs))
	}
	if c.Len() != 0 {
		t.Fatal("Flush left valid lines")
	}
}

// TestHierarchyInclusion: a line the LLC evicts leaves L1 too, even when
// L1's own LRU order would have kept it. L1 is one set of two ways and the
// LLC's set 0 holds indices 0, 4 and 8; an L1 hit leaves the LLC's order
// alone, so line 0 is L1's most recent line and the LLC's victim.
func TestHierarchyInclusion(t *testing.T) {
	cfg := HierarchyConfig{
		L1:          Config{SizeBytes: 256, Ways: 2, LineBytes: 128},  // 1 set, 2 ways
		L2:          Config{SizeBytes: 1024, Ways: 2, LineBytes: 128}, // 4 sets, 2 ways
		L1HitCycles: 1,
		L2HitCycles: 10,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(0, false)
	h.Fill(4, false) // LLC set 0: 4, then 0 (LRU)
	if out := h.Access(0, false); out.HitLevel != 1 {
		t.Fatalf("hit level %d, want 1", out.HitLevel)
	}
	h.Fill(8, false) // the LLC evicts 0; L1's own victim would be 4
	if h.LLC().Probe(0) {
		t.Fatal("line 0 still in the LLC: the fills did not evict it")
	}
	if h.L1().Probe(0) {
		t.Fatal("inclusion violated: line 0 in L1 but not in the LLC")
	}
	if !h.L1().Probe(4) || !h.L1().Probe(8) {
		t.Fatal("L1 lost a line the LLC still holds")
	}
}

func TestHierarchyWritebackOnDirtyEviction(t *testing.T) {
	cfg := HierarchyConfig{
		L1:          Config{SizeBytes: 256, Ways: 2, LineBytes: 128},
		L2:          Config{SizeBytes: 512, Ways: 2, LineBytes: 128}, // 2 sets
		L1HitCycles: 1,
		L2HitCycles: 10,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(0, true) // dirty
	var wbs []uint64
	for i := uint64(1); i < 8; i++ {
		out := h.Fill(i*2, false) // indices 2,4,... map across 2 sets
		wbs = append(wbs, out.Writebacks...)
	}
	found := false
	for _, w := range wbs {
		if w == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty line 0 never written back (writebacks %v)", wbs)
	}
}

func TestHierarchyPrefetchLifecycle(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.FillPrefetch(100)
	if h.L1().Probe(100) {
		t.Fatal("prefetch filled L1 (paper puts prefetches in LLC only)")
	}
	if !h.Present(100) {
		t.Fatal("prefetch missing from LLC")
	}
	out := h.Access(100, false)
	if out.HitLevel != 2 || !out.PrefetchFirstUse {
		t.Fatalf("prefetched access outcome %+v", out)
	}
	out = h.Access(100, false)
	if out.HitLevel != 1 || out.PrefetchFirstUse {
		t.Fatalf("second access outcome %+v", out)
	}
}

func TestHierarchyPrefetchEvictedUnused(t *testing.T) {
	cfg := HierarchyConfig{
		L1:          Config{SizeBytes: 256, Ways: 2, LineBytes: 128},
		L2:          Config{SizeBytes: 512, Ways: 2, LineBytes: 128},
		L1HitCycles: 1,
		L2HitCycles: 10,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.FillPrefetch(0)
	var resolved []uint64
	for i := uint64(1); i < 8; i++ {
		out := h.Fill(i*2, false)
		resolved = append(resolved, out.PrefetchEvicted...)
	}
	found := false
	for _, r := range resolved {
		if r == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("unused prefetch never resolved (got %v)", resolved)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1, true)
	h.FillPrefetch(2)
	wbs, pfs := h.Flush()
	if len(wbs) != 1 || wbs[0] != 1 {
		t.Fatalf("flush writebacks %v", wbs)
	}
	if len(pfs) != 1 || pfs[0] != 2 {
		t.Fatalf("flush prefetch resolutions %v", pfs)
	}
}

func TestHierarchyRandomizedConsistency(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1:          Config{SizeBytes: 512, Ways: 2, LineBytes: 128},
		L2:          Config{SizeBytes: 2048, Ways: 4, LineBytes: 128},
		L1HitCycles: 1, L2HitCycles: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := 0; i < 20000; i++ {
		idx := r.Uint64n(64)
		out := h.Access(idx, r.Bool())
		if out.HitLevel == 0 {
			h.Fill(idx, false)
		}
		if r.Float64() < 0.1 {
			h.FillPrefetch(r.Uint64n(64))
		}
	}
	// Inclusion property holds throughout.
	for idx := uint64(0); idx < 64; idx++ {
		if h.L1().Probe(idx) && !h.LLC().Probe(idx) {
			t.Fatalf("inclusion violated for %d", idx)
		}
	}
}

func TestHierarchyValidate(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1.LineBytes = 64
	if _, err := NewHierarchy(cfg); err == nil {
		t.Fatal("mismatched line sizes accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.L2HitCycles = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Fatal("zero hit latency accepted")
	}
}

// TestHierarchyDoesNotAllocate: once its buffers have grown, the hierarchy
// hands back victims without allocating. Every Fill below evicts a dirty
// LLC line, every FillPrefetch an unused prefetch, and every Access hits
// the LLC and evicts a dirty L1 line, so each call fills or consults an
// outcome list.
func TestHierarchyDoesNotAllocate(t *testing.T) {
	cfg := HierarchyConfig{
		L1:          Config{SizeBytes: 256, Ways: 2, LineBytes: 128},  // 1 set
		L2:          Config{SizeBytes: 1024, Ways: 2, LineBytes: 128}, // 4 sets
		L1HitCycles: 1,
		L2HitCycles: 10,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var filled, prefetched uint64
	fill := func() {
		// Set 0 of the LLC: the line it evicts was filled dirty.
		if out := h.Fill(4*filled, true); filled >= 2 && len(out.Writebacks) == 0 {
			t.Fatalf("Fill(%d) evicted no dirty line", 4*filled)
		}
		filled++
	}
	prefetch := func() {
		// Set 1: the line it evicts was prefetched and never used.
		if out := h.FillPrefetch(4*prefetched + 1); prefetched >= 2 && len(out.PrefetchEvicted) == 0 {
			t.Fatalf("FillPrefetch(%d) evicted no unused prefetch", 4*prefetched+1)
		}
		prefetched++
	}
	// Sets 2 and 3 hold four lines, L1 two: cycling through the four
	// misses L1, hits the LLC and evicts a written L1 line.
	for _, i := range []uint64{2, 3, 6, 7} {
		h.Fill(i, true)
	}
	cycle := []uint64{2, 3, 6, 7}
	var k int
	access := func() {
		if out := h.Access(cycle[k%4], true); out.HitLevel != 2 {
			t.Fatalf("Access(%d) hit level %d, want 2", cycle[k%4], out.HitLevel)
		}
		k++
	}
	for _, c := range []struct {
		name string
		f    func()
	}{{"Fill", fill}, {"FillPrefetch", prefetch}, {"Access", access}} {
		// AllocsPerRun rounds down, so each run makes 16 calls: one
		// allocation in every other call still reads as 8.
		batch := func() {
			for range 16 {
				c.f()
			}
		}
		if avg := testing.AllocsPerRun(100, batch); avg != 0 {
			t.Errorf("16 calls of %s allocate %.0f times", c.name, avg)
		}
	}
}
