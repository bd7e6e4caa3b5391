package oram

import (
	"fmt"
	"testing"

	"proram/internal/dram"
	"proram/internal/dram/banked"
	"proram/internal/rng"
	"proram/internal/superblock"
	"proram/internal/tree"
)

// testConfig returns a small, fast configuration for functional tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumBlocks = 1 << 12
	cfg.OnChipEntries = 64
	cfg.PLBBlocks = 8
	return cfg
}

// fakeLLC is a stand-in for the processor cache used to drive the merge
// algorithm's tag probes in unit tests.
type fakeLLC struct{ set map[uint64]bool }

func newFakeLLC() *fakeLLC                   { return &fakeLLC{set: make(map[uint64]bool)} }
func (f *fakeLLC) Present(index uint64) bool { return f.set[index] }
func (f *fakeLLC) add(indices ...uint64) {
	for _, i := range indices {
		f.set[i] = true
	}
}

func TestNewValidatesConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Z = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Dynamic, MaxSize: 64,
		CMerge: 1, CBreak: 1, Window: 1000}
	cfg.Fanout = 32
	if _, err := New(cfg); err == nil {
		t.Fatal("super block larger than fanout accepted")
	}
}

// TestValidateBoundsTreeDepth walks the edge of the geometry check, which
// is pure arithmetic: the largest population a tree slot can name passes
// and one block more fails, and that population, position map included,
// derives no deeper a tree than a slot can label — also under the
// smallest fanout and on-chip table, which make the position map largest.
func TestValidateBoundsTreeDepth(t *testing.T) {
	cfg := DefaultConfig()
	fits := func(n uint64) bool {
		cfg.NumBlocks = n
		return cfg.Validate() == nil
	}
	if n := uint64(tree.MaxBlocks); !fits(n) || fits(n+1) || fits(^uint64(0)) {
		t.Fatalf("%d blocks fit: %v, one more: %v, 2^64-1: %v; want true, false, false", n, fits(n), fits(n+1), fits(^uint64(0)))
	}
	for _, geometry := range []struct {
		fanout int
		onChip uint64
	}{{cfg.Fanout, cfg.OnChipEntries}, {2, 1}} {
		cfg.NumBlocks, cfg.Fanout, cfg.OnChipEntries = tree.MaxBlocks, geometry.fanout, geometry.onChip
		if levels := cfg.TreeLevels(cfg.posMap().TotalBlocks()); levels != MaxTreeLevels {
			t.Errorf("fanout %d, %d on chip: %d blocks derive %d levels, want %d",
				geometry.fanout, geometry.onChip, cfg.NumBlocks, levels, MaxTreeLevels)
		}
	}
}

func TestBasicReadTiming(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := c.Read(0, 42)
	if res.Done == 0 {
		t.Fatal("zero completion time")
	}
	// A cold access walks the whole recursion: depth posmap paths + 1 data.
	wantPaths := c.pm.Depth() + 1
	if res.PathCount != wantPaths {
		t.Fatalf("cold access used %d paths, want %d", res.PathCount, wantPaths)
	}
	if res.Done != uint64(wantPaths)*c.PathLatency() {
		t.Fatalf("Done = %d, want %d", res.Done, uint64(wantPaths)*c.PathLatency())
	}
	s := c.Stats()
	if s.DemandReads != 1 || s.DataPaths != 1 || s.PosMapPaths != uint64(c.pm.Depth()) {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPLBSavesRecursion(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Read(0, 100)
	// A second access to a block covered by the same level-1 pos-map block
	// hits the PLB and needs only the data path.
	res := c.Read(c.Stats().LastEnd, 101)
	if res.PathCount != 1 {
		t.Fatalf("PLB-covered access used %d paths, want 1", res.PathCount)
	}
	if c.Stats().PLBHits == 0 {
		t.Fatal("no PLB hits recorded")
	}
}

// TestPLBVictimCostsNoPath fails on an inclusive PLB: uniform accesses on a
// population far larger than the PLB covers miss at nearly every level, and
// each miss used to pay a second path access to write the victim back. The
// exclusive PLB pays one path per missed level and none per victim.
func TestPLBVictimCostsNoPath(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	const requests = 10_000
	for i := 0; i < requests; i++ {
		c.Read(c.Stats().LastEnd, r.Uint64n(c.cfg.NumBlocks))
	}
	s := c.Stats()
	perRequest := float64(s.PathAccesses) / requests
	missLevels := float64(s.PosMapPaths) / requests
	if missLevels < 1 {
		t.Fatalf("%.2f PLB-miss levels per request: the scenario does not stress the PLB", missLevels)
	}
	if bound := 1 + 1.1*missLevels; perRequest >= bound {
		t.Fatalf("%.3f path accesses per request, want below 1 + 1.1 × %.3f miss levels = %.3f", perRequest, missLevels, bound)
	}
}

func TestReadYourStructure(t *testing.T) {
	// Repeated accesses to the same block must remap it every time and
	// keep it resident exactly once.
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Read(c.Stats().LastEnd, 7)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantUnderRandomWorkload(t *testing.T) {
	cfg := testConfig()
	cfg.NumBlocks = 1 << 10
	cfg.StashLimit = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		idx := r.Uint64n(cfg.NumBlocks)
		if r.Bool() {
			c.Read(c.Stats().LastEnd, idx)
		} else {
			c.Write(c.Stats().LastEnd, idx)
		}
		if i%500 == 499 {
			if err := c.CheckInvariant(); err != nil {
				t.Fatalf("after %d ops: %v", i+1, err)
			}
		}
	}
	s := c.Stats()
	if s.DemandReads+s.Writebacks != 2000 {
		t.Fatalf("request accounting: %+v", s)
	}
}

func TestBackgroundEvictionsKeepStashBounded(t *testing.T) {
	cfg := testConfig()
	cfg.NumBlocks = 1 << 10
	cfg.StashLimit = 2 // tiny stash forces background evictions
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		c.Read(c.Stats().LastEnd, r.Uint64n(cfg.NumBlocks))
		if c.StashSize() > cfg.StashLimit {
			t.Fatalf("stash %d exceeds limit %d after a completed access", c.StashSize(), cfg.StashLimit)
		}
	}
	if c.Stats().BackgroundEvictions == 0 {
		t.Fatal("tiny stash produced no background evictions")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticSchemeInitializesGroups(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Read(0, 5) // group [4,8)
	want := []uint64{4, 6, 7}
	if len(res.Prefetched) != len(want) {
		t.Fatalf("prefetched %v, want %v", res.Prefetched, want)
	}
	for i, w := range want {
		if res.Prefetched[i] != w {
			t.Fatalf("prefetched %v, want %v", res.Prefetched, want)
		}
	}
	// All four members share a leaf and size 4.
	pb := c.pm.Block(1, 0)
	leaf := pb.Entries[4].Label()
	for i := 4; i < 8; i++ {
		if pb.Entries[i].Label() != leaf || pb.Entries[i].Size() != 4 {
			t.Fatalf("entry %d = %+v", i, pb.Entries[i])
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().PrefetchIssued != 3 {
		t.Fatalf("PrefetchIssued = %d", c.Stats().PrefetchIssued)
	}
}

func TestStaticSchemeSubsequentAccessLoadsGroup(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 2}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Read(0, 10)
	res := c.Read(c.Stats().LastEnd, 11)
	if len(res.Prefetched) != 1 || res.Prefetched[0] != 10 {
		t.Fatalf("prefetched %v, want [10]", res.Prefetched)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicMergeHappens(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
		MergeMode: superblock.ThresholdStatic, BreakMode: superblock.ThresholdStatic,
		CMerge: 1, CBreak: 1, Window: 1000}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)

	c.Read(0, 0)
	llc.add(0)
	// Access 1: neighbor 0 is in LLC -> merge counter 1 (< threshold 2).
	c.Read(c.Stats().LastEnd, 1)
	llc.add(1)
	if c.Stats().Merges != 0 {
		t.Fatal("merged too early")
	}
	// Access 0: neighbor 1 in LLC -> counter 2 -> merge.
	res := c.Read(c.Stats().LastEnd, 0)
	if c.Stats().Merges != 1 {
		t.Fatalf("Merges = %d, want 1", c.Stats().Merges)
	}
	// The merge itself returns only the accessed block (neighbor already cached).
	if len(res.Prefetched) != 0 {
		t.Fatalf("merge access prefetched %v", res.Prefetched)
	}
	pb := c.pm.Block(1, 0)
	if pb.Entries[0].Size() != 2 || pb.Entries[1].Size() != 2 {
		t.Fatalf("sizes after merge: %d %d", pb.Entries[0].Size(), pb.Entries[1].Size())
	}
	if pb.Entries[0].Label() != pb.Entries[1].Label() {
		t.Fatal("merged blocks on different leaves")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// The next access of either member returns the other as a prefetch.
	res = c.Read(c.Stats().LastEnd, 1)
	if len(res.Prefetched) != 1 || res.Prefetched[0] != 0 {
		t.Fatalf("post-merge prefetch = %v, want [0]", res.Prefetched)
	}
}

func TestDynamicBreakHappens(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
		MergeMode: superblock.ThresholdStatic, BreakMode: superblock.ThresholdStatic,
		CMerge: 1, CBreak: 1, Window: 1000}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	// Merge blocks 0 and 1 as above.
	c.Read(0, 0)
	llc.add(0)
	c.Read(c.Stats().LastEnd, 1)
	llc.add(1)
	c.Read(c.Stats().LastEnd, 0)
	if c.Stats().Merges != 1 {
		t.Fatal("setup merge failed")
	}
	// Now stop cooperating: clear the LLC so no further merges, and access
	// only block 0 so block 1's prefetches always go unused. The break
	// counter starts at 2n = 4 and loses 1 per unused prefetch
	// observation, so the 5th observation drives it below zero.
	llc.set = map[uint64]bool{}
	for i := 0; i < 10; i++ {
		c.Read(c.Stats().LastEnd, 0)
		if c.Stats().Breaks > 0 {
			break
		}
	}
	if c.Stats().Breaks != 1 {
		t.Fatalf("Breaks = %d, want 1", c.Stats().Breaks)
	}
	pb := c.pm.Block(1, 0)
	if pb.Entries[0].Size() != 1 || pb.Entries[1].Size() != 1 {
		t.Fatalf("sizes after break: %d %d", pb.Entries[0].Size(), pb.Entries[1].Size())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchHitFeedsBreakCounter(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
		MergeMode: superblock.ThresholdStatic, BreakMode: superblock.ThresholdStatic,
		CMerge: 1, CBreak: 1, Window: 1000}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	c.Read(0, 0)
	llc.add(0)
	c.Read(c.Stats().LastEnd, 1)
	llc.add(1)
	c.Read(c.Stats().LastEnd, 0) // merge
	// Access 1 -> prefetches 0; report the prefetch used.
	res := c.Read(c.Stats().LastEnd, 1)
	if len(res.Prefetched) != 1 || res.Prefetched[0] != 0 {
		t.Fatalf("prefetched %v", res.Prefetched)
	}
	c.NotifyPrefetchUse(0)
	// Next load observes the hit and increments the break counter.
	c.Read(c.Stats().LastEnd, 1)
	s := c.Stats()
	if s.PrefetchHits != 1 || s.ReloadedUsed != 1 {
		t.Fatalf("hit accounting: %+v", s)
	}
	if s.Breaks != 0 {
		t.Fatal("hit caused a break")
	}
}

func TestWritebackKeepsGroupTogether(t *testing.T) {
	cfg := testConfig()
	cfg.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Read(0, 16)
	res := c.Write(c.Stats().LastEnd, 18) // dirty eviction of a member
	if len(res.Prefetched) != 0 {
		t.Fatal("writeback produced prefetches")
	}
	pb := c.pm.Block(1, 0)
	leaf := pb.Entries[16].Label()
	for i := 16; i < 20; i++ {
		if pb.Entries[i].Label() != leaf {
			t.Fatal("writeback split the super block across leaves")
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().WritebackPaths != 1 {
		t.Fatalf("WritebackPaths = %d", c.Stats().WritebackPaths)
	}
}

func TestPeriodicModeIssuesDummies(t *testing.T) {
	cfg := testConfig()
	cfg.Periodic = true
	cfg.Oint = 100
	cfg.RecordTrace = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Read(0, 1)
	end := c.Stats().LastEnd
	// Request arriving long after completion forces catch-up dummies.
	gap := 10 * (c.PathLatency() + cfg.Oint)
	c.Read(end+gap, 2)
	if c.Stats().DummyAccesses == 0 {
		t.Fatal("no periodic dummies during idle gap")
	}
	// Verify the public schedule: consecutive starts differ by exactly
	// pathLatency + Oint.
	tr := c.Trace()
	for i := 1; i < len(tr); i++ {
		if d := tr[i].Start - tr[i-1].Start; d != c.PathLatency()+cfg.Oint {
			t.Fatalf("trace gap %d at %d, want %d", d, i, c.PathLatency()+cfg.Oint)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		cfg := testConfig()
		cfg.Super = superblock.DefaultConfig()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		llc := newFakeLLC()
		c.SetProber(llc)
		r := rng.New(99)
		for i := 0; i < 500; i++ {
			res := c.Read(c.Stats().LastEnd, r.Uint64n(256))
			llc.add(res.Prefetched...)
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Read did not panic")
		}
	}()
	c.Read(0, c.cfg.NumBlocks)
}

func TestPathLatencyOverride(t *testing.T) {
	cfg := testConfig()
	cfg.PathLatencyOverride = 2364
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.PathLatency() != 2364 {
		t.Fatalf("PathLatency = %d, want 2364", c.PathLatency())
	}
}

// TestFlatDeviceTiming: without a banked configuration the controller's
// one timing path runs on dram.Flat, and every path access starts where
// the previous one ended and takes exactly cfg.PathLatency(levels) — for a
// pinned latency and for the one derived from geometry and bandwidth.
func TestFlatDeviceTiming(t *testing.T) {
	for _, override := range []uint64{2364, 0} {
		cfg := testConfig()
		cfg.PathLatencyOverride = override
		cfg.RecordTrace = true
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lat := cfg.PathLatency(c.TreeLevels())
		if override != 0 && lat != override {
			t.Fatalf("PathLatency = %d, want the override %d", lat, override)
		}
		if dev, ok := c.dev.(dram.Flat); !ok || dev.Latency != lat {
			t.Fatalf("override %d: device %#v, want dram.Flat{%d}", override, c.dev, lat)
		}
		const start = 1000
		res := c.Read(start, 42)
		for i, ev := range c.Trace() {
			if want := start + uint64(i)*lat; ev.Start != want {
				t.Fatalf("override %d: path %d starts at %d, want %d", override, i, ev.Start, want)
			}
		}
		n := uint64(len(c.Trace()))
		if n == 0 || res.Done != start+n*lat || c.Stats().BusyCycles != n*lat {
			t.Fatalf("override %d: %d paths, Done %d, busy %d, want Done %d and busy %d",
				override, n, res.Done, c.Stats().BusyCycles, start+n*lat, n*lat)
		}
	}
}

func TestPartialTailGroup(t *testing.T) {
	cfg := testConfig()
	cfg.NumBlocks = 33 // last level-1 block covers a single entry
	cfg.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Read(0, 32)
	if len(res.Prefetched) != 0 {
		t.Fatalf("tail singleton prefetched %v", res.Prefetched)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveWindowRolls(t *testing.T) {
	cfg := testConfig()
	sb := superblock.DefaultConfig()
	sb.Window = 50
	cfg.Super = sb
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	r := rng.New(4)
	for i := 0; i < 200; i++ {
		res := c.Read(c.Stats().LastEnd, r.Uint64n(64))
		llc.add(res.Prefetched...)
		llc.add(r.Uint64n(64))
	}
	// After several windows the policy must have nonzero access rate.
	if c.policy.Rates().AccessRate == 0 {
		t.Fatal("adaptive window never rolled")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDisabledPLBStillWorks(t *testing.T) {
	cfg := testConfig()
	cfg.PLBBlocks = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		res := c.Read(c.Stats().LastEnd, i%37)
		// Every access pays the full recursion.
		if res.PathCount < c.pm.Depth()+1 {
			t.Fatalf("access %d used %d paths, want >= %d", i, res.PathCount, c.pm.Depth()+1)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchEvictNotification(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.NotifyPrefetchEvict(3)
	if s := c.Stats(); s.PrefetchUnused != 1 {
		t.Fatalf("PrefetchUnused = %d", s.PrefetchUnused)
	}
	if got := (Stats{PrefetchHits: 1, PrefetchUnused: 3}).PrefetchMissRate(); got != 0.75 {
		t.Fatalf("PrefetchMissRate = %v", got)
	}
	if got := (Stats{}).PrefetchMissRate(); got != 0 {
		t.Fatalf("empty PrefetchMissRate = %v", got)
	}
}

func TestDynamicInvariantUnderChurn(t *testing.T) {
	// Heavy merge/break churn with a realistic half-cooperative LLC.
	cfg := testConfig()
	cfg.NumBlocks = 1 << 10
	cfg.StashLimit = 60
	sb := superblock.DefaultConfig()
	sb.MaxSize = 8
	sb.Window = 100
	cfg.Super = sb
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	r := rng.New(11)
	for i := 0; i < 3000; i++ {
		var idx uint64
		if r.Float64() < 0.7 {
			idx = r.Uint64n(64) // hot sequential-ish region
		} else {
			idx = r.Uint64n(cfg.NumBlocks)
		}
		res := c.Read(c.Stats().LastEnd, idx)
		llc.add(idx)
		llc.add(res.Prefetched...)
		for _, p := range res.Prefetched {
			if r.Bool() {
				c.NotifyPrefetchUse(p)
			} else {
				c.NotifyPrefetchEvict(p)
				delete(llc.set, p)
			}
		}
		// Random LLC pressure.
		if r.Float64() < 0.3 {
			delete(llc.set, r.Uint64n(cfg.NumBlocks))
		}
		if i%1000 == 999 {
			if err := c.CheckInvariant(); err != nil {
				t.Fatalf("after %d ops: %v", i+1, err)
			}
		}
	}
	s := c.Stats()
	if s.Merges == 0 {
		t.Fatal("hot region never merged")
	}
	t.Logf("merges=%d breaks=%d bg=%d prefetchIssued=%d", s.Merges, s.Breaks, s.BackgroundEvictions, s.PrefetchIssued)
}

// An index at or past NumBlocks names no block: the prefetch notifications
// must ignore it rather than index the hit bits out of range.
func TestPrefetchNotificationsIgnoreOutOfRange(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, index := range []uint64{c.cfg.NumBlocks, ^uint64(0)} {
		c.NotifyPrefetchUse(index)
		c.NotifyPrefetchEvict(index)
	}
	if s := c.Stats(); s.PrefetchHits != 0 || s.PrefetchUnused != 0 {
		t.Fatalf("out-of-range notifications counted: hits %d unused %d", s.PrefetchHits, s.PrefetchUnused)
	}
	// The last valid index still works, and counts once.
	c.NotifyPrefetchUse(c.cfg.NumBlocks - 1)
	c.NotifyPrefetchUse(c.cfg.NumBlocks - 1)
	if s := c.Stats(); s.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d, want 1", s.PrefetchHits)
	}
}

// A warmed, populated controller serves requests without allocating, on
// every device and schedule: the stash, position map, hit bits, path
// buffers and the banked device's bank state are all in place. Read may
// allocate once, for the Prefetched slice it returns. In periodic mode each
// request arrives after an idle gap, so it also pays catch-up dummies.
func TestSteadyStateAccessDoesNotAllocate(t *testing.T) {
	layout := func(l banked.Layout) *banked.Config {
		b := banked.DefaultConfig()
		b.Layout = l
		return &b
	}
	devices := []struct {
		name   string
		banked *banked.Config
	}{
		{"flat", nil},
		{"linear", layout(banked.LayoutLinear)},
		{"packed", layout(banked.LayoutSubtreePacked)},
	}
	for _, dev := range devices {
		for _, periodic := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/periodic=%v", dev.name, periodic), func(t *testing.T) {
				cfg := testConfig()
				cfg.Super = superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
					CMerge: 1, CBreak: 1, Window: 1000}
				cfg.Banked = dev.banked
				cfg.Periodic = periodic
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var gap uint64
				if periodic {
					gap = 3 * (c.PathLatency() + cfg.Oint)
				}
				llc := newFakeLLC()
				c.SetProber(llc)
				for i := uint64(0); i < cfg.NumBlocks; i++ {
					c.Write(c.lastEnd, i) // populate: every block gets a leaf
					llc.add(i)            // and counts as cached, so neighbours merge
				}
				r := rng.New(3)
				next := func() uint64 { return r.Uint64n(cfg.NumBlocks) }
				for i := 0; i < 20000; i++ {
					c.Read(c.lastEnd+gap, next())
					c.Write(c.lastEnd+gap, next())
				}
				if c.Stats().Merges == 0 {
					t.Fatal("warm-up formed no super block; Read would return no prefetches")
				}
				if periodic && c.Stats().DummyAccesses == 0 {
					t.Fatal("warm-up issued no periodic dummies; the schedule's slot filling is not measured")
				}
				if avg := testing.AllocsPerRun(2000, func() { c.Write(c.lastEnd+gap, next()) }); avg != 0 {
					t.Errorf("Write allocates %.3f times per call", avg)
				}
				if avg := testing.AllocsPerRun(2000, func() { c.Read(c.lastEnd+gap, next()) }); avg > 1 {
					t.Errorf("Read allocates %.3f times per call, want at most 1", avg)
				}
				if err := c.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkPathAccess times Read on a warm controller at the geometry of
// the repository benchmark's sim_locality workload: the Table 1 system
// (1.5M blocks, prefilled, Z=3, PLB of 128) under the dynamic scheme with
// super blocks of up to two, over uniformly random indices. It reports ns
// per Read and path accesses per Read; with no LLC attached nothing
// merges, so the number is the path accesses' host time. Run it with
// `go test -run '^$' -bench PathAccess -benchtime 2000x ./internal/oram`.
func BenchmarkPathAccess(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Prefill = true
	sb := superblock.DefaultConfig()
	sb.MaxSize = 2
	cfg.Super = sb
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		c.Read(c.lastEnd, r.Uint64n(cfg.NumBlocks))
	}
	before := c.Stats().PathAccesses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(c.lastEnd, r.Uint64n(cfg.NumBlocks))
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Stats().PathAccesses-before)/float64(b.N), "paths/op")
}
