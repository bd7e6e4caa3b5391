package sim

import (
	"strings"
	"testing"

	"proram/internal/oram"
	"proram/internal/prefetch"
	"proram/internal/superblock"
	"proram/internal/trace"
)

// smallORAM shrinks the ORAM for fast tests.
func smallORAM(cfg *Config) {
	cfg.ORAM.NumBlocks = 1 << 17
	cfg.ORAM.OnChipEntries = 256
}

func synth(ops uint64, locality float64, seed uint64) trace.Generator {
	return trace.NewSynthetic(trace.SyntheticConfig{
		Ops: ops, WorkingSetBytes: 2 << 20, LocalityFraction: locality,
		RunLen: 16, Gap: 4, WriteFraction: 0.3, Seed: seed,
	})
}

func run(t *testing.T, cfg Config, g trace.Generator) Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestValidation(t *testing.T) {
	cfg := DefaultConfig(TechDRAM)
	cfg.BlockBytes = 64 // mismatched with 128B caches
	if _, err := New(cfg); err == nil {
		t.Fatal("mismatched line size accepted")
	}
	cfg = DefaultConfig(TechORAM)
	pf := prefetch.DefaultConfig()
	cfg.Prefetch = &pf
	cfg.ORAM.Super = superblock.DefaultConfig()
	if _, err := New(cfg); err == nil {
		t.Fatal("prefetcher + super blocks accepted")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	cfg := DefaultConfig(TechDRAM)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(synth(100, 0.5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(synth(100, 0.5, 1)); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestWorkloadBeyondCapacityIsAnError: a trace that addresses a block the
// ORAM does not hold ends the run with an error naming the address and the
// capacity — the controller's own answer to such an index is a panic. The
// same trace is fine on DRAM, which has no capacity.
func TestWorkloadBeyondCapacityIsAnError(t *testing.T) {
	cfg := DefaultConfig(TechORAM)
	cfg.ORAM.NumBlocks = 1 << 12 // 512 KB; synth spans 2 MB
	cfg.ORAM.OnChipEntries = 64
	cfg.WarmupOps = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(synth(5000, 0.5, 1))
	if err == nil {
		t.Fatal("out-of-range workload ran to completion")
	}
	for _, want := range []string{"address 0x", "4096 blocks of 128 bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	run(t, DefaultConfig(TechDRAM), synth(5000, 0.5, 1))
}

func TestDRAMFasterThanORAM(t *testing.T) {
	g1 := synth(20000, 0.5, 7)
	g2 := synth(20000, 0.5, 7)
	dramRep := run(t, DefaultConfig(TechDRAM), g1)
	ocfg := DefaultConfig(TechORAM)
	smallORAM(&ocfg)
	oramRep := run(t, ocfg, g2)
	if oramRep.Cycles <= dramRep.Cycles {
		t.Fatalf("ORAM (%d) not slower than DRAM (%d)", oramRep.Cycles, dramRep.Cycles)
	}
	// The paper's regime: ORAM is multiples slower on memory-bound work.
	if float64(oramRep.Cycles) < 1.5*float64(dramRep.Cycles) {
		t.Fatalf("ORAM overhead only %.2fx; model too cheap",
			float64(oramRep.Cycles)/float64(dramRep.Cycles))
	}
}

func TestCacheFiltersTraffic(t *testing.T) {
	rep := run(t, DefaultConfig(TechDRAM), synth(20000, 0.8, 9))
	if rep.L1Hits == 0 || rep.LLCMisses == 0 {
		t.Fatalf("degenerate cache behaviour: %+v", rep)
	}
	if rep.MemReads != rep.LLCMisses {
		t.Fatalf("MemReads %d != LLCMisses %d", rep.MemReads, rep.LLCMisses)
	}
	if rep.MemOps != 20000 {
		t.Fatalf("MemOps = %d", rep.MemOps)
	}
}

func TestORAMDemandAccounting(t *testing.T) {
	cfg := DefaultConfig(TechORAM)
	smallORAM(&cfg)
	rep := run(t, cfg, synth(10000, 0.5, 11))
	if rep.ORAM.DemandReads != rep.LLCMisses {
		t.Fatalf("ORAM demand reads %d != LLC misses %d", rep.ORAM.DemandReads, rep.LLCMisses)
	}
	if rep.MemoryAccesses != rep.ORAM.PathAccesses {
		t.Fatal("energy proxy mismatch")
	}
	if rep.ORAM.Writebacks != rep.MemWrites {
		t.Fatalf("writebacks %d != mem writes %d", rep.ORAM.Writebacks, rep.MemWrites)
	}
}

func TestDynamicSuperBlockHelpsSequential(t *testing.T) {
	base := DefaultConfig(TechORAM)
	smallORAM(&base)
	baseRep := run(t, base, synth(80000, 0.95, 13))

	dyn := DefaultConfig(TechORAM)
	smallORAM(&dyn)
	dyn.ORAM.Super = superblock.DefaultConfig()
	dynRep := run(t, dyn, synth(80000, 0.95, 13))

	if dynRep.ORAM.Merges == 0 {
		t.Fatal("sequential workload never merged")
	}
	if dynRep.Cycles >= baseRep.Cycles {
		t.Fatalf("PrORAM (%d cycles) not faster than baseline (%d) on sequential workload",
			dynRep.Cycles, baseRep.Cycles)
	}
	if dynRep.ORAM.PrefetchHits == 0 {
		t.Fatal("no prefetch hits on sequential workload")
	}
}

func TestDynamicSuperBlockHarmlessOnRandom(t *testing.T) {
	base := DefaultConfig(TechORAM)
	smallORAM(&base)
	baseRep := run(t, base, synth(20000, 0.0, 17))

	dyn := DefaultConfig(TechORAM)
	smallORAM(&dyn)
	dyn.ORAM.Super = superblock.DefaultConfig()
	dynRep := run(t, dyn, synth(20000, 0.0, 17))

	// Figure 6a: with no locality, dynamic matches the baseline closely.
	ratio := float64(dynRep.Cycles) / float64(baseRep.Cycles)
	if ratio > 1.05 {
		t.Fatalf("dynamic scheme hurt random workload by %.1f%%", (ratio-1)*100)
	}
}

func TestStaticSuperBlockHurtsRandom(t *testing.T) {
	base := DefaultConfig(TechORAM)
	smallORAM(&base)
	baseRep := run(t, base, synth(20000, 0.0, 19))

	stat := DefaultConfig(TechORAM)
	smallORAM(&stat)
	stat.ORAM.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 2}
	statRep := run(t, stat, synth(20000, 0.0, 19))

	// Figure 6a at 0% locality: static is slower than baseline.
	if statRep.Cycles <= baseRep.Cycles {
		t.Fatalf("static scheme (%d) unexpectedly beat baseline (%d) on random workload",
			statRep.Cycles, baseRep.Cycles)
	}
}

func TestStreamPrefetcherHelpsDRAM(t *testing.T) {
	plain := DefaultConfig(TechDRAM)
	plainRep := run(t, plain, synth(30000, 0.9, 23))

	pf := prefetch.DefaultConfig()
	pre := DefaultConfig(TechDRAM)
	pre.Prefetch = &pf
	preRep := run(t, pre, synth(30000, 0.9, 23))

	if preRep.StreamIssued == 0 {
		t.Fatal("prefetcher idle on sequential workload")
	}
	if preRep.Cycles >= plainRep.Cycles {
		t.Fatalf("DRAM prefetching did not help: %d vs %d", preRep.Cycles, plainRep.Cycles)
	}
}

func TestStreamPrefetcherDoesNotHelpORAM(t *testing.T) {
	plain := DefaultConfig(TechORAM)
	smallORAM(&plain)
	plainRep := run(t, plain, synth(20000, 0.9, 29))

	pf := prefetch.DefaultConfig()
	pre := DefaultConfig(TechORAM)
	smallORAM(&pre)
	pre.Prefetch = &pf
	preRep := run(t, pre, synth(20000, 0.9, 29))

	// Figure 5: ORAM prefetching must not produce the DRAM-style win; the
	// serialized controller makes prefetches compete with demand misses.
	improvement := float64(plainRep.Cycles)/float64(preRep.Cycles) - 1
	if improvement > 0.05 {
		t.Fatalf("ORAM stream prefetching helped by %.1f%%, contradicting Figure 5", improvement*100)
	}
}

func TestPeriodicORAMRuns(t *testing.T) {
	cfg := DefaultConfig(TechORAM)
	smallORAM(&cfg)
	cfg.ORAM.Periodic = true
	cfg.ORAM.Oint = 100
	rep := run(t, cfg, synth(5000, 0.5, 31))
	if rep.Cycles == 0 {
		t.Fatal("no progress in periodic mode")
	}
}

func TestDeterministicReports(t *testing.T) {
	cfg := DefaultConfig(TechORAM)
	smallORAM(&cfg)
	cfg.ORAM.Super = superblock.DefaultConfig()
	a := run(t, cfg, synth(5000, 0.7, 37))
	b := run(t, cfg, synth(5000, 0.7, 37))
	if a != b {
		t.Fatalf("nondeterministic reports:\n%+v\n%+v", a, b)
	}
}

func TestORAMInvariantAfterFullRun(t *testing.T) {
	cfg := DefaultConfig(TechORAM)
	cfg.ORAM.NumBlocks = 1 << 16
	cfg.ORAM.OnChipEntries = 128
	cfg.ORAM.Super = superblock.DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(synth(10000, 0.8, 41)); err != nil {
		t.Fatal(err)
	}
	if err := s.ORAM().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarkModelsRun(t *testing.T) {
	// Smoke: every suite profile runs end-to-end on both technologies.
	for _, p := range trace.Splash2(2000)[:3] {
		d := run(t, DefaultConfig(TechDRAM), trace.NewModel(p))
		cfg := DefaultConfig(TechORAM) // full 128 MB capacity: the models use 32 MB sets
		o := run(t, cfg, trace.NewModel(p))
		if d.MemOps != o.MemOps {
			t.Fatalf("%s: op counts differ", p.Name)
		}
	}
	ycsb := trace.NewYCSB(trace.DefaultYCSB(2000))
	cfg := DefaultConfig(TechORAM)
	cfg.ORAM.Super = superblock.DefaultConfig()
	rep := run(t, cfg, ycsb)
	if rep.MemOps != 2000 {
		t.Fatalf("YCSB ran %d ops", rep.MemOps)
	}
}

func TestWritebacksReachORAM(t *testing.T) {
	cfg := DefaultConfig(TechORAM)
	smallORAM(&cfg)
	g := trace.NewSynthetic(trace.SyntheticConfig{
		Ops: 20000, WorkingSetBytes: 8 << 20, LocalityFraction: 0,
		RunLen: 1, Gap: 2, WriteFraction: 1.0, Seed: 43,
	})
	rep := run(t, cfg, g)
	if rep.MemWrites == 0 || rep.ORAM.WritebackPaths == 0 {
		t.Fatalf("write-heavy run produced no ORAM writebacks: %+v", rep)
	}
}

var sinkReport Report

func BenchmarkBaselineORAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(TechORAM)
		smallORAM(&cfg)
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(synth(5000, 0.5, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sinkReport = rep
	}
}

func BenchmarkPrORAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(TechORAM)
		smallORAM(&cfg)
		cfg.ORAM.Super = superblock.DefaultConfig()
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(synth(5000, 0.9, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sinkReport = rep
	}
}

var _ = oram.Stats{} // keep the import for white-box assertions above
