package oram

import (
	"fmt"
	"math"
	"testing"

	"proram/internal/rng"
	"proram/internal/superblock"
)

// securityConfig returns a small traced configuration.
func securityConfig() Config {
	cfg := DefaultConfig()
	cfg.NumBlocks = 1 << 10
	cfg.OnChipEntries = 64
	cfg.PLBBlocks = 8
	cfg.RecordTrace = true
	return cfg
}

// securityPLBs are the PLB capacities the leaf-distribution tests run at:
// the configuration's own, and 2 — of 32 position-map blocks — so that
// nearly every access evicts a victim into the stash and sooner or later
// fetches it back by the label it re-entered under.
var securityPLBs = []int{8, 2}

// forEachPLB runs test once per capacity in securityPLBs.
func forEachPLB(t *testing.T, test func(t *testing.T, cfg Config)) {
	for _, plb := range securityPLBs {
		t.Run(fmt.Sprintf("plb=%d", plb), func(t *testing.T) {
			cfg := securityConfig()
			cfg.PLBBlocks = plb
			test(t, cfg)
		})
	}
}

// lagRepeats counts the positions at which leaves[i] == leaves[i-lag].
func lagRepeats(leaves []uint64, lag int) int {
	n := 0
	for i := lag; i < len(leaves); i++ {
		if leaves[i] == leaves[i-lag] {
			n++
		}
	}
	return n
}

// chiSquare computes the chi-square statistic of observed counts against a
// uniform expectation.
func chiSquare(counts []uint64, total uint64) float64 {
	expected := float64(total) / float64(len(counts))
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// leafHistogram bins the trace's leaves into nBins equal buckets.
func leafHistogram(c *Controller, nBins int) ([]uint64, uint64) {
	counts := make([]uint64, nBins)
	leaves := c.tr.Leaves()
	var total uint64
	for _, ev := range c.Trace() {
		counts[ev.Leaf*uint64(nBins)/leaves]++
		total++
	}
	return counts, total
}

// The adversary observes only path (leaf) identities. Leaves must be
// uniformly distributed regardless of the logical pattern.
func TestLeafUniformity(t *testing.T) {
	forEachPLB(t, func(t *testing.T, cfg Config) {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(21)
		for i := 0; i < 5000; i++ {
			c.Read(c.Stats().LastEnd, r.Uint64n(c.cfg.NumBlocks))
		}
		const bins = 16
		counts, total := leafHistogram(c, bins)
		// 15 dof, 99.9% critical value ~37.7.
		if chi := chiSquare(counts, total); chi > 37.7 {
			t.Fatalf("leaf distribution not uniform: chi2 = %.2f (counts %v)", chi, counts)
		}
	})
}

// Accessing the same logical block repeatedly must produce unlinkable
// (fresh uniform) paths: this is step 4 of the protocol. The reads rotate
// over block 7 and one block under each of two other level-1 position-map
// blocks, so with a PLB of 2 every read misses, evicts the block fetched
// two reads earlier into the stash, and reads the path of the one evicted
// before that: a victim's label, drawn at its fetch and unseen since, must
// be as fresh as a data block's.
func TestRepeatedAccessUnlinkability(t *testing.T) {
	forEachPLB(t, func(t *testing.T, cfg Config) {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const rotation = 3
		for i := 0; i < rotation*4000; i++ {
			c.Read(c.Stats().LastEnd, 7+uint64(i%rotation*cfg.Fanout))
		}
		if s := c.Stats(); cfg.PLBBlocks < rotation && s.PLBHits != 0 {
			t.Fatalf("%d PLB hits: the rotation should miss every time", s.PLBHits)
		}
		tree := c.tr.Leaves()
		var all []uint64
		byKind := map[AccessKind][]uint64{}
		for _, ev := range c.Trace() {
			all = append(all, ev.Leaf)
			byKind[ev.Kind] = append(byKind[ev.Kind], ev.Leaf)
		}
		for _, kind := range []AccessKind{KindData, KindPosMap} {
			leaves := byKind[kind]
			if len(leaves) < 1000 {
				continue // the first-touch walk of the larger PLB
			}
			counts := make([]uint64, 16)
			for _, l := range leaves {
				counts[l*16/tree]++
			}
			if chi := chiSquare(counts, uint64(len(leaves))); chi > 37.7 {
				t.Errorf("%v leaves linkable: chi2 = %.2f", kind, chi)
			}
			// The same block's next access of this kind is one rotation later:
			// its leaf must not repeat more often than chance.
			expected := float64(len(leaves)) / float64(tree)
			if got := lagRepeats(leaves, rotation); float64(got) > 5*expected+10 {
				t.Errorf("%v: a block's consecutive leaves repeat %d times, %.1f expected by chance", kind, got, expected)
			}
		}
		// Nor may any access repeat the path of a recent one of another kind —
		// the path a victim's block was last read on, say.
		for lag := 1; lag <= 4*rotation; lag++ {
			expected := float64(len(all)) / float64(tree)
			if got := lagRepeats(all, lag); float64(got) > 5*expected+10 {
				t.Errorf("lag %d: %d repeated leaves, %.1f expected by chance", lag, got, expected)
			}
		}
	})
}

// A sequential logical pattern and a random logical pattern must be
// indistinguishable in the physical trace: compare binned leaf histograms
// via total-variation distance.
func TestPatternIndependence(t *testing.T) {
	forEachPLB(t, func(t *testing.T, cfg Config) { testPatternIndependence(t, cfg) })
}

func testPatternIndependence(t *testing.T, cfg Config) {
	run := func(sequential bool) []uint64 {
		cfg.Super = superblock.DefaultConfig() // PrORAM active: still oblivious
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		llc := newFakeLLC()
		c.SetProber(llc)
		r := rng.New(31)
		for i := 0; i < 4000; i++ {
			var idx uint64
			if sequential {
				idx = uint64(i) % c.cfg.NumBlocks
			} else {
				idx = r.Uint64n(c.cfg.NumBlocks)
			}
			res := c.Read(c.Stats().LastEnd, idx)
			llc.add(idx)
			llc.add(res.Prefetched...)
		}
		counts, _ := leafHistogram(c, 16)
		return counts
	}
	seq := run(true)
	rnd := run(false)
	var seqTotal, rndTotal float64
	for i := range seq {
		seqTotal += float64(seq[i])
		rndTotal += float64(rnd[i])
	}
	tv := 0.0
	for i := range seq {
		tv += math.Abs(float64(seq[i])/seqTotal - float64(rnd[i])/rndTotal)
	}
	tv /= 2
	if tv > 0.05 {
		t.Fatalf("leaf histograms distinguish patterns: TV distance %.4f", tv)
	}
}

// Merging and breaking must not mark the trace: a run with the dynamic
// scheme produces the same *kind* of physical events (full path accesses),
// and each access touches exactly one path.
func TestSuperBlockAccessesLookNormal(t *testing.T) {
	cfg := securityConfig()
	cfg.Super = superblock.DefaultConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	for i := 0; i < 2000; i++ {
		idx := uint64(i) % 128
		res := c.Read(c.Stats().LastEnd, idx)
		llc.add(idx)
		llc.add(res.Prefetched...)
	}
	if c.Stats().Merges == 0 {
		t.Fatal("scenario produced no merges; test is vacuous")
	}
	// Every traced event is one full path; leaves stay in range.
	for _, ev := range c.Trace() {
		if ev.Leaf >= c.tr.Leaves() {
			t.Fatalf("leaf %d out of range", ev.Leaf)
		}
	}
	// The number of physical accesses must not depend on merge content in
	// a visible way: each demand read is exactly one data path regardless
	// of super block size.
	s := c.Stats()
	if s.DataPaths != s.DemandReads {
		t.Fatalf("data paths %d != demand reads %d: super blocks changed the access shape",
			s.DataPaths, s.DemandReads)
	}
}

// Periodic mode must yield a fully deterministic schedule regardless of
// the request stream.
func TestPeriodicScheduleDeterminism(t *testing.T) {
	starts := func(seed uint64, hot bool) []uint64 {
		cfg := securityConfig()
		cfg.Periodic = true
		cfg.Oint = 100
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		now := uint64(0)
		for i := 0; i < 200; i++ {
			idx := r.Uint64n(c.cfg.NumBlocks)
			res := c.Read(now, idx)
			if hot {
				now = res.Done // back-to-back requests
			} else {
				now = res.Done + uint64(r.Uint64n(5000)) // idle gaps
			}
		}
		var out []uint64
		for _, ev := range c.Trace() {
			out = append(out, ev.Start)
		}
		return out
	}
	hot := starts(1, true)
	cold := starts(2, false)
	// Both schedules obey the same public cadence: start_{k+1} - start_k is
	// constant (pathLat + Oint).
	gap := hot[1] - hot[0]
	for i := 1; i < len(hot); i++ {
		if hot[i]-hot[i-1] != gap {
			t.Fatalf("hot schedule irregular at %d", i)
		}
	}
	for i := 1; i < len(cold); i++ {
		if cold[i]-cold[i-1] != gap {
			t.Fatalf("cold schedule gap %d != %d at %d: timing leaks load", cold[i]-cold[i-1], gap, i)
		}
	}
}
