package proram

import (
	"math"
	"strings"
	"testing"
)

func TestSimulatorFacade(t *testing.T) {
	w, err := Synthetic(SyntheticConfig{Ops: 20000, LocalityFraction: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSimulator(SimConfig{Memory: MemoryORAM})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewSimulator(SimConfig{Memory: MemoryORAM, Scheme: SchemeDynamic})
	if err != nil {
		t.Fatal(err)
	}
	dynRes, err := dyn.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.MemOps != 20000 || dynRes.MemOps != 20000 {
		t.Fatalf("op counts: %d/%d", baseRes.MemOps, dynRes.MemOps)
	}
	if dynRes.ORAM.Merges == 0 {
		t.Fatal("dynamic scheme inert through the facade")
	}
	if baseRes.Cycles == 0 || dynRes.MemoryAccesses == 0 {
		t.Fatal("empty result")
	}
}

// TestSimulatorRejectsWorkloadBeyondCapacity: YCSB's 8 MB table does not
// fit a 2 MB ORAM. Run must say so; it used to panic in the controller.
func TestSimulatorRejectsWorkloadBeyondCapacity(t *testing.T) {
	s, err := NewSimulator(SimConfig{Scheme: SchemeDynamic, ORAMBlocks: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(YCSBWorkload(20000))
	if err == nil || !strings.Contains(err.Error(), "16384 blocks of 128 bytes") {
		t.Fatalf("out-of-range workload: got error %v, want one naming the capacity", err)
	}
	// The simulator is still good for a workload that fits.
	w, err := Synthetic(SyntheticConfig{Ops: 2000, WorkingSetBytes: 1 << 20, LocalityFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatorDRAMvsORAM(t *testing.T) {
	w, err := Synthetic(SyntheticConfig{Ops: 15000, LocalityFraction: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dram, err := NewSimulator(SimConfig{Memory: MemoryDRAM})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := dram.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	oram, err := NewSimulator(SimConfig{Memory: MemoryORAM})
	if err != nil {
		t.Fatal(err)
	}
	or, err := oram.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if or.Cycles <= dr.Cycles {
		t.Fatalf("ORAM (%d) not slower than DRAM (%d)", or.Cycles, dr.Cycles)
	}
}

func TestSimulatorKnobs(t *testing.T) {
	// Every public knob must produce a valid system.
	cfgs := []SimConfig{
		{Memory: MemoryORAM, Scheme: SchemeStatic, MaxSuperBlock: 4},
		{Memory: MemoryORAM, Z: 4, StashBlocks: 50},
		{Memory: MemoryORAM, Periodic: true, Oint: 64},
		{Memory: MemoryDRAM, StreamPrefetcher: true, BandwidthGBps: 8},
		{Memory: MemoryORAM, CacheLineBytes: 64, ORAMBlocks: 1 << 16, WarmupOps: 500},
	}
	w, err := Synthetic(SyntheticConfig{Ops: 4000, LocalityFraction: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cfgs {
		s, err := NewSimulator(c)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if _, err := s.Run(w); err != nil {
			t.Fatalf("config %d run: %v", i, err)
		}
	}
	// Invalid: prefetcher + scheme.
	if _, err := NewSimulator(SimConfig{Scheme: SchemeDynamic, StreamPrefetcher: true}); err == nil {
		t.Fatal("prefetcher + scheme accepted")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if got := len(Splash2Workloads(1000)); got != 14 {
		t.Fatalf("Splash2Workloads = %d", got)
	}
	if got := len(SPEC06Workloads(1000)); got != 10 {
		t.Fatalf("SPEC06Workloads = %d", got)
	}
	for _, w := range []Workload{YCSBWorkload(1000), TPCCWorkload(1000)} {
		if w.Name == "" || w.Ops != 1000 {
			t.Fatalf("bad workload %+v", w)
		}
		g, err := w.generator()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		if n != 1000 {
			t.Fatalf("%s yielded %d ops", w.Name, n)
		}
	}
	for _, c := range []SyntheticConfig{
		{Ops: 10, LocalityFraction: 2},
		{Ops: 10, LocalityFraction: math.NaN()},
		{Ops: 10, WriteFraction: math.NaN()},
	} {
		if _, err := Synthetic(c); err == nil {
			t.Fatalf("bad fraction accepted: %+v", c)
		}
	}
}

// TestSimulatorMisuseIsAnError: a zero Workload and out-of-range enum
// values come back as errors from every entry point — no panic, and no
// silent fallback to the baseline scheme or to ORAM.
func TestSimulatorMisuseIsAnError(t *testing.T) {
	const zero = "proram: zero Workload; use a workload constructor"
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"Run(zero Workload)", func() error {
			s, err := NewSimulator(SimConfig{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Run(Workload{})
			return err
		}, zero},
		{"SimulateSharded(zero Workload)", func() error {
			_, err := SimulateSharded(Config{Partitions: 2}, Workload{}, 2, ShardedOptions{})
			return err
		}, zero},
		{"unknown Scheme", func() error {
			_, err := NewSimulator(SimConfig{Scheme: Scheme(9)})
			return err
		}, "proram: unknown scheme 9"},
		{"unknown Memory", func() error {
			_, err := NewSimulator(SimConfig{Memory: Memory(9)})
			return err
		}, "proram: unknown memory 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil || err.Error() != tc.want {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
	Workload{}.ForEach(func(Op) { t.Fatal("zero Workload streamed an op") })
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 27 { // 18 paper tables/figures + 6 ablations + bench0 + bench1 + audit2
		t.Fatalf("ExperimentIDs = %d", len(ids))
	}
	if _, ok := ExperimentTitle("fig8a"); !ok {
		t.Fatal("missing title")
	}
	tb, err := Experiment("table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "table1" || len(tb.Rows) == 0 || tb.Format() == "" || tb.CSV() == "" {
		t.Fatalf("bad table: %+v", tb)
	}
	if v, ok := tb.Cell("Z", "paper"); !ok || v != 3 {
		t.Fatalf("Cell(Z, paper) = %v, %v", v, ok)
	}
	if _, err := Experiment("nope", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
