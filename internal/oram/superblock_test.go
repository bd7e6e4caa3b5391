package oram

import (
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
	"proram/internal/superblock"
)

// dynConfig builds a dynamic-scheme controller with static thresholds for
// deterministic unit-level behaviour.
func dynConfig(maxSize int) Config {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Dynamic, MaxSize: maxSize,
		MergeMode: superblock.ThresholdStatic, BreakMode: superblock.ThresholdStatic,
		CMerge: 1, CBreak: 1, Window: 1000}
	return cfg
}

// mergePair drives controller c until blocks a and a+1 are merged.
func mergePair(t *testing.T, c *Controller, llc *fakeLLC, a uint64) {
	t.Helper()
	for i := 0; i < 10; i++ {
		c.Read(c.Stats().LastEnd, a)
		llc.add(a)
		c.Read(c.Stats().LastEnd, a+1)
		llc.add(a + 1)
		pb := c.pm.Block(1, a/uint64(c.cfg.Fanout))
		if pb.Entries[int(a)%c.cfg.Fanout].Size() == 2 {
			return
		}
	}
	t.Fatalf("pair (%d,%d) never merged", a, a+1)
}

func TestMergeToMaxSizeChain(t *testing.T) {
	cfg := dynConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	mergePair(t, c, llc, 0)
	mergePair(t, c, llc, 2)
	// Two size-2 neighbors: alternate accesses until they merge to size 4.
	for i := 0; i < 30; i++ {
		res := c.Read(c.Stats().LastEnd, 0)
		llc.add(0)
		llc.add(res.Prefetched...)
		res = c.Read(c.Stats().LastEnd, 2)
		llc.add(2)
		llc.add(res.Prefetched...)
		if c.pm.Block(1, 0).Entries[0].Size() == 4 {
			break
		}
	}
	pb := c.pm.Block(1, 0)
	if pb.Entries[0].Size() != 4 {
		t.Fatalf("size-4 merge never happened (size=%d, merges=%d)",
			pb.Entries[0].Size(), c.Stats().Merges)
	}
	leaf := pb.Entries[0].Label()
	for i := 1; i < 4; i++ {
		if pb.Entries[i].Label() != leaf || pb.Entries[i].Size() != 4 {
			t.Fatalf("entry %d inconsistent after size-4 merge: %+v", i, pb.Entries[i])
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// A demand read of any member now prefetches the other three.
	res := c.Read(c.Stats().LastEnd, 1)
	if len(res.Prefetched) != 3 {
		t.Fatalf("size-4 super block prefetched %v", res.Prefetched)
	}
}

func TestMergeNeverExceedsMaxSize(t *testing.T) {
	cfg := dynConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	mergePair(t, c, llc, 0)
	mergePair(t, c, llc, 2)
	for i := 0; i < 20; i++ {
		c.Read(c.Stats().LastEnd, uint64(i%4))
		llc.add(uint64(i % 4))
	}
	for i := 0; i < 4; i++ {
		if s := c.pm.Block(1, 0).Entries[i].Size(); s > 2 {
			t.Fatalf("entry %d grew to %d > MaxSize 2", i, s)
		}
	}
}

func TestBreakOfSize4YieldsSize2Halves(t *testing.T) {
	cfg := dynConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	mergePair(t, c, llc, 0)
	mergePair(t, c, llc, 2)
	for i := 0; i < 30 && c.pm.Block(1, 0).Entries[0].Size() != 4; i++ {
		c.Read(c.Stats().LastEnd, 0)
		llc.add(0)
		c.Read(c.Stats().LastEnd, 2)
		llc.add(2)
	}
	if c.pm.Block(1, 0).Entries[0].Size() != 4 {
		t.Skip("size-4 merge did not form; covered elsewhere")
	}
	// Starve the prefetches: only ever touch block 0, keep LLC empty.
	llc.set = map[uint64]bool{}
	breaksBefore := c.Stats().Breaks
	for i := 0; i < 40 && c.Stats().Breaks == breaksBefore; i++ {
		c.Read(c.Stats().LastEnd, 0)
	}
	if c.Stats().Breaks == breaksBefore {
		t.Fatal("size-4 super block never broke under pure misses")
	}
	pb := c.pm.Block(1, 0)
	if pb.Entries[0].Size() != 2 || pb.Entries[2].Size() != 2 {
		t.Fatalf("halves after break: %d/%d", pb.Entries[0].Size(), pb.Entries[2].Size())
	}
	// The two halves must now be on independent leaves.
	if pb.Entries[0].Label() == pb.Entries[2].Label() {
		t.Fatal("broken halves still share a leaf (linkable)")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAcrossPosMapBlockBoundaryRejected(t *testing.T) {
	// Blocks 31 and 32 live in different level-1 pos-map blocks; they are
	// not neighbors (alignment) and must never merge.
	cfg := dynConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	for i := 0; i < 10; i++ {
		c.Read(c.Stats().LastEnd, 31)
		llc.add(31)
		c.Read(c.Stats().LastEnd, 32)
		llc.add(32)
	}
	if c.pm.Block(1, 0).Entries[31].Size() != 1 {
		t.Fatal("block 31 merged across an alignment boundary")
	}
	if c.pm.Block(1, 1).Entries[0].Size() != 1 {
		t.Fatal("block 32 merged across an alignment boundary")
	}
}

func TestUnalignedPairNeverMerges(t *testing.T) {
	// Paper Figure 3: blocks 3 and 4 cannot merge (not aligned).
	cfg := dynConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	for i := 0; i < 10; i++ {
		c.Read(c.Stats().LastEnd, 3)
		llc.add(3)
		c.Read(c.Stats().LastEnd, 4)
		llc.add(4)
	}
	pb := c.pm.Block(1, 0)
	if pb.Entries[3].Size() != 1 || pb.Entries[4].Size() != 1 {
		t.Fatalf("unaligned pair merged: %d/%d", pb.Entries[3].Size(), pb.Entries[4].Size())
	}
}

func TestMergeRequiresEqualSizes(t *testing.T) {
	// A size-2 group cannot merge with a size-1 neighbor pair half.
	cfg := dynConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	mergePair(t, c, llc, 0) // (0,1) merged, (2,3) still singles
	llc.add(2)              // only block 2 cached, 3 never touched
	for i := 0; i < 6; i++ {
		res := c.Read(c.Stats().LastEnd, 0)
		llc.add(0)
		llc.add(res.Prefetched...)
	}
	if s := c.pm.Block(1, 0).Entries[0].Size(); s != 2 {
		t.Fatalf("merged with an unequal/untouched neighbor: size %d", s)
	}
}

func TestPrefetchBitsClearedOnReload(t *testing.T) {
	cfg := dynConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	mergePair(t, c, llc, 0)
	res := c.Read(c.Stats().LastEnd, 0) // prefetches 1
	if len(res.Prefetched) != 1 {
		t.Fatalf("prefetched %v", res.Prefetched)
	}
	pb := c.pm.Block(1, 0)
	if !pb.Entries[1].Prefetch {
		t.Fatal("prefetch bit not set")
	}
	c.Read(c.Stats().LastEnd, 1) // demand reload resolves the episode
	if pb.Entries[1].Prefetch {
		t.Fatal("prefetch bit not consumed by Algorithm 2")
	}
}

func TestAdaptiveSchemeUnderImbalancedSizes(t *testing.T) {
	// Fuzz: random reads over a small region with an erratically updated
	// LLC must keep all invariants across merge/break churn at MaxSize 8.
	cfg := testConfig()
	cfg.NumBlocks = 1 << 10
	sb := superblock.DefaultConfig()
	sb.MaxSize = 8
	sb.Window = 64
	cfg.Super = sb
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	r := rng.New(23)
	for i := 0; i < 4000; i++ {
		var idx uint64
		switch r.Intn(3) {
		case 0:
			idx = r.Uint64n(32) // very hot: merges to large sizes
		case 1:
			idx = r.Uint64n(256)
		default:
			idx = r.Uint64n(cfg.NumBlocks)
		}
		if r.Intn(4) == 0 {
			c.Write(c.Stats().LastEnd, idx)
			continue
		}
		res := c.Read(c.Stats().LastEnd, idx)
		llc.add(idx)
		llc.add(res.Prefetched...)
		if r.Intn(3) == 0 {
			delete(llc.set, r.Uint64n(64))
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	t.Logf("merges=%d breaks=%d maxSize observed via invariant", s.Merges, s.Breaks)
	if s.Merges == 0 {
		t.Fatal("hot region never merged")
	}
}

func TestWritebackOfBrokenHalf(t *testing.T) {
	// Dirty-evicting a member right after its super block broke must
	// remap only its own (new, smaller) group.
	cfg := dynConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	mergePair(t, c, llc, 4)
	llc.set = map[uint64]bool{}
	for i := 0; i < 10 && c.Stats().Breaks == 0; i++ {
		c.Read(c.Stats().LastEnd, 4)
	}
	if c.Stats().Breaks == 0 {
		t.Fatal("pair never broke")
	}
	c.Write(c.Stats().LastEnd, 5)
	pb := c.pm.Block(1, 0)
	if pb.Entries[4].Size() != 1 || pb.Entries[5].Size() != 1 {
		t.Fatalf("sizes after writeback: %d/%d", pb.Entries[4].Size(), pb.Entries[5].Size())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCounterSaturationViaController(t *testing.T) {
	// Repeated co-residency observations far beyond the threshold must
	// not wrap the counter (saturating arithmetic end-to-end).
	cfg := dynConfig(2)
	cfg.Super.MaxSize = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	// Alternate 8/9 far past the merge point (resolving every prefetch as
	// a hit, as the cache layer would), then verify state is sane.
	for i := 0; i < 600; i++ {
		idx := uint64(8 + i%2)
		res := c.Read(c.Stats().LastEnd, idx)
		llc.add(idx)
		llc.add(res.Prefetched...)
		for _, p := range res.Prefetched {
			c.NotifyPrefetchUse(p)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Merges != 1 {
		t.Fatalf("pair merged %d times (churn?)", c.Stats().Merges)
	}
}

func TestStaticSchemeNeverBreaks(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 2}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All prefetches miss forever: static must keep the grouping anyway.
	for i := 0; i < 100; i++ {
		c.Read(c.Stats().LastEnd, 6)
	}
	if c.Stats().Breaks != 0 {
		t.Fatal("static scheme broke a super block")
	}
	if c.pm.Block(1, 0).Entries[6].Size() != 2 {
		t.Fatal("static group lost")
	}
}

func TestGroupLeafSharedAfterEveryAccess(t *testing.T) {
	// Property: after any access, every member of a super block shares the
	// leaf of every other member (checked directly, not via the full
	// invariant scan, to exercise the hot path's postcondition).
	cfg := dynConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	r := rng.New(31)
	for i := 0; i < 1500; i++ {
		idx := r.Uint64n(64)
		res := c.Read(c.Stats().LastEnd, idx)
		llc.add(idx)
		llc.add(res.Prefetched...)
		pb := c.pm.Block(1, idx/uint64(c.cfg.Fanout))
		slot := int(idx % uint64(c.cfg.Fanout))
		n := pb.Entries[slot].Size()
		g := slot &^ (n - 1)
		leaf := pb.Entries[g].Label()
		for j := g; j < g+n; j++ {
			if pb.Entries[j].Label() != leaf {
				t.Fatalf("op %d: group [%d,%d) leaves diverged", i, g, g+n)
			}
		}
	}
}

var _ = mem.Nil // keep the import for future white-box additions
