package trace

import (
	"slices"
	"testing"
)

func collect(g Generator) []Op {
	var ops []Op
	for {
		op, ok := g.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

func TestSyntheticLength(t *testing.T) {
	g := NewSynthetic(SyntheticConfig{
		Ops: 1000, WorkingSetBytes: 1 << 20, LocalityFraction: 0.5,
		RunLen: 8, Gap: 10, WriteFraction: 0.3, Seed: 1,
	})
	ops := collect(g)
	if uint64(len(ops)) != g.Len() || len(ops) != 1000 {
		t.Fatalf("generated %d ops, want 1000", len(ops))
	}
	// Exhausted generator stays exhausted.
	if _, ok := g.Next(); ok {
		t.Fatal("generator produced past Len")
	}
}

func TestSyntheticAddressesInRange(t *testing.T) {
	const ws = 1 << 20
	g := NewSynthetic(SyntheticConfig{
		Ops: 5000, WorkingSetBytes: ws, LocalityFraction: 0.7,
		RunLen: 8, Gap: 4, WriteFraction: 0.2, Seed: 2,
	})
	for _, op := range collect(g) {
		if op.Addr >= ws {
			t.Fatalf("address %d outside working set", op.Addr)
		}
		if op.Addr%Stride != 0 {
			t.Fatalf("address %d not stride-aligned", op.Addr)
		}
	}
}

// sequentiality measures the fraction of ops whose address is exactly one
// stride after the previous one.
func sequentiality(ops []Op) float64 {
	seq := 0
	for i := 1; i < len(ops); i++ {
		if ops[i].Addr == ops[i-1].Addr+Stride {
			seq++
		}
	}
	return float64(seq) / float64(len(ops)-1)
}

func TestSyntheticLocalityKnob(t *testing.T) {
	gen := func(loc float64) []Op {
		return collect(NewSynthetic(SyntheticConfig{
			Ops: 20000, WorkingSetBytes: 1 << 22, LocalityFraction: loc,
			RunLen: 16, Gap: 4, WriteFraction: 0, Seed: 3,
		}))
	}
	low := sequentiality(gen(0.1))
	high := sequentiality(gen(0.9))
	if high < low+0.3 {
		t.Fatalf("locality knob ineffective: seq(0.1)=%.3f seq(0.9)=%.3f", low, high)
	}
	zero := sequentiality(gen(0))
	if zero > 0.02 {
		t.Fatalf("zero locality still sequential: %.3f", zero)
	}
}

func TestSyntheticPhaseChange(t *testing.T) {
	g := NewSynthetic(SyntheticConfig{
		Ops: 8000, WorkingSetBytes: 1 << 20, LocalityFraction: 0.5,
		RunLen: 16, Gap: 4, PhaseLen: 2000, Seed: 4,
	})
	ops := collect(g)
	// In even phases sequential accesses live in the lower half; in odd
	// phases in the upper half. Check that both halves see sequential runs
	// in their respective phases.
	half := uint64(1 << 19)
	seqLowPhase0, seqHighPhase1 := 0, 0
	for i := 1; i < len(ops); i++ {
		if ops[i].Addr != ops[i-1].Addr+Stride {
			continue
		}
		switch {
		case i < 2000 && ops[i].Addr < half:
			seqLowPhase0++
		case i >= 2000 && i < 4000 && ops[i].Addr >= half:
			seqHighPhase1++
		}
	}
	if seqLowPhase0 < 100 || seqHighPhase1 < 100 {
		t.Fatalf("phases not alternating: low@p0=%d high@p1=%d", seqLowPhase0, seqHighPhase1)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{Ops: 500, WorkingSetBytes: 1 << 20,
		LocalityFraction: 0.5, RunLen: 8, Gap: 10, WriteFraction: 0.3, Seed: 5}
	a := collect(NewSynthetic(cfg))
	b := collect(NewSynthetic(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at op %d", i)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Ops: 0, WorkingSetBytes: 1 << 20, RunLen: 1},
		{Ops: 10, WorkingSetBytes: 64, RunLen: 1},
		{Ops: 10, WorkingSetBytes: 1 << 20, LocalityFraction: 1.5, RunLen: 1},
		{Ops: 10, WorkingSetBytes: 1 << 20, RunLen: 0},
		{Ops: 10, WorkingSetBytes: 1 << 20, RunLen: 1, WriteFraction: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestSplash2Suite(t *testing.T) {
	suite := Splash2(1000)
	if len(suite) != 14 {
		t.Fatalf("Splash2 has %d entries, want 14", len(suite))
	}
	names := map[string]bool{}
	for _, p := range suite {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		names[p.Name] = true
		ops := collect(NewModel(p))
		if len(ops) != 1000 {
			t.Errorf("%s generated %d ops", p.Name, len(ops))
		}
	}
	// Memory-intensive classification covers exactly the tail of the list.
	if Splash2MemoryIntensive("water_ns") || !Splash2MemoryIntensive("ocean_c") {
		t.Fatal("memory-intensive classification wrong")
	}
}

func TestSPEC06Suite(t *testing.T) {
	suite := SPEC06(1000)
	if len(suite) != 10 {
		t.Fatalf("SPEC06 has %d entries, want 10", len(suite))
	}
	for _, p := range suite {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if !SPEC06MemoryIntensive("mcf") || SPEC06MemoryIntensive("h264") {
		t.Fatal("memory-intensive classification wrong")
	}
}

func TestModelHotColdSplit(t *testing.T) {
	p := ModelParams{
		Name: "x", Ops: 20000, WorkingSetBytes: mb(8), HotSetBytes: kb(64),
		HotFraction: 0.9, SeqFraction: 0.5, RunLen: 8, Gap: 4, Seed: 6,
	}
	ops := collect(NewModel(p))
	hot := 0
	for _, op := range ops {
		if op.Addr < kb(64) {
			hot++
		}
	}
	frac := float64(hot) / float64(len(ops))
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %.3f, want ~0.9", frac)
	}
}

func TestModelLocalityOrdering(t *testing.T) {
	// ocean_c must have a much more sequential cold stream than volrend.
	suite := Splash2(30000)
	seqOf := func(name string) float64 {
		p := ByName(suite, name)[0]
		p.HotFraction = 0 // isolate the cold stream
		return sequentiality(collect(NewModel(p)))
	}
	ocean := seqOf("ocean_c")
	vol := seqOf("volrend")
	if ocean < vol+0.3 {
		t.Fatalf("locality ordering broken: ocean_c %.3f volrend %.3f", ocean, vol)
	}
}

func TestByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown name did not panic")
		}
	}()
	ByName(Splash2(10), "nosuch")
}

func TestYCSBRecordScans(t *testing.T) {
	cfg := DefaultYCSB(20000)
	g := NewYCSB(cfg)
	ops := collect(g)
	if uint64(len(ops)) != cfg.Ops {
		t.Fatalf("generated %d", len(ops))
	}
	// Within a record scan, addresses advance by Stride; scans are
	// RecordSize/Stride = 16 ops long, so sequentiality must be ~15/16.
	if s := sequentiality(ops); s < 0.85 {
		t.Fatalf("YCSB sequentiality %.3f, want ~0.94", s)
	}
	// Addresses stay within the table.
	max := cfg.Records * cfg.RecordSize
	for _, op := range ops {
		if op.Addr >= max {
			t.Fatalf("address %d outside table", op.Addr)
		}
	}
}

func TestYCSBZipfSkew(t *testing.T) {
	cfg := DefaultYCSB(50000)
	g := NewYCSB(cfg)
	recCount := map[uint64]int{}
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		recCount[op.Addr/cfg.RecordSize]++
	}
	// The head records must dominate.
	total := 0
	head := 0
	for rec, n := range recCount {
		total += n
		if rec < cfg.Records/10 {
			head += n
		}
	}
	if frac := float64(head) / float64(total); frac < 0.4 {
		t.Fatalf("YCSB head mass %.3f too small", frac)
	}
}

func TestYCSBWriteFraction(t *testing.T) {
	cfg := DefaultYCSB(40000)
	g := NewYCSB(cfg)
	writes := 0
	n := 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Write {
			writes++
		}
		n++
	}
	frac := float64(writes) / float64(n)
	if frac < 0.01 || frac > 0.12 {
		t.Fatalf("write fraction %.3f, want ~0.05", frac)
	}
}

func TestTPCCProfile(t *testing.T) {
	p := TPCC(1000)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.WriteFraction < 0.3 {
		t.Fatal("TPC-C should be write-heavy")
	}
}

func TestYCSBValidation(t *testing.T) {
	bad := DefaultYCSB(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ops accepted")
	}
	c := DefaultYCSB(10)
	c.Theta = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("bad theta accepted")
	}
}

func TestTake(t *testing.T) {
	g := NewSynthetic(SyntheticConfig{
		Ops: 100, WorkingSetBytes: 1 << 20, LocalityFraction: 0.5,
		RunLen: 4, Gap: 2, Seed: 9,
	})
	head := Take(g, 30)
	if head.Len() != 30 {
		t.Fatalf("Take Len = %d", head.Len())
	}
	if got := len(collect(head)); got != 30 {
		t.Fatalf("Take yielded %d ops", got)
	}
	// The remainder continues where the prefix stopped.
	if got := len(collect(g)); got != 70 {
		t.Fatalf("remainder yielded %d ops", got)
	}
	// Take larger than the stream is bounded by the stream.
	g2 := NewSynthetic(SyntheticConfig{
		Ops: 10, WorkingSetBytes: 1 << 20, LocalityFraction: 0.5,
		RunLen: 4, Gap: 2, Seed: 9,
	})
	if got := len(collect(Take(g2, 50))); got != 10 {
		t.Fatalf("oversized Take yielded %d ops", got)
	}
}

// TestSeedSteersEveryGenerator holds the seed rule for the trace package:
// each generator draws from the caller's seed, so one seed gives one
// stream and two seeds give two. A generator seeded internally makes
// seeds 1 and 2 agree.
func TestSeedSteersEveryGenerator(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(seed uint64) Generator
	}{
		{"NewModel", func(seed uint64) Generator {
			p := ByName(Splash2(2000), "ocean_c")[0]
			p.Seed = seed
			return NewModel(p)
		}},
		{"NewSynthetic", func(seed uint64) Generator {
			return NewSynthetic(SyntheticConfig{Ops: 2000, WorkingSetBytes: 1 << 20,
				LocalityFraction: 0.5, RunLen: 8, Gap: 10, WriteFraction: 0.3, Seed: seed})
		}},
		{"NewYCSB", func(seed uint64) Generator {
			cfg := DefaultYCSB(2000)
			cfg.Seed = seed
			return NewYCSB(cfg)
		}},
	} {
		a, again, b := collect(c.gen(1)), collect(c.gen(1)), collect(c.gen(2))
		if !slices.Equal(a, again) {
			t.Errorf("%s: seed 1 gave two different streams", c.name)
		}
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", c.name)
		}
	}
}
