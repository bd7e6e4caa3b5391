package exp

import (
	"fmt"

	"proram/internal/sim"
	"proram/internal/superblock"
	"proram/internal/trace"
)

// Ablations for the design choices DESIGN.md calls out. These go beyond
// the paper's figures: they isolate the contribution of individual
// mechanisms in our implementation.
func init() {
	register("ablation_plb", "PLB size ablation: recursion overhead vs. PLB capacity", ablationPLB)
	register("ablation_threshold", "Thresholding ablation: static vs adaptive Equation 1", ablationThreshold)
	register("ablation_oint", "Dynamic-Oint extension: dummy savings vs. leaked bits", ablationOint)
	register("ablation_prefill", "Prefill ablation: initialized vs lazily-populated tree", ablationPrefill)
}

// ablationPLB sweeps the position-map lookaside buffer: with no PLB every
// access walks the full recursion; a modest PLB removes most of it.
func ablationPLB(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation_plb",
		Title:   "Baseline ORAM completion time and recursion share vs PLB capacity",
		Columns: []string{"norm_time", "posmap_path_share", "plb_hit_rate"},
	}
	p := trace.ByName(trace.Splash2(opt.scale(fig8Ops)), "ocean_c")[0]
	p.Seed += opt.Seed
	gf := modelFactory(p)

	// inclusive is norm_time as the inclusive PLB of the parent commit
	// measured it: there a PLB victim stayed in the tree and cost a second
	// path access to write back. The exclusive PLB cannot run that protocol
	// any more, so the column is a record, not a measurement, and it is
	// printed only for the run it was recorded at (scale 1, seed 0); at any
	// other the two columns would not describe the same trace. The no-PLB
	// row is the one system both protocols share bit for bit, which is why
	// it is the unit of both columns (a column each relative to its own
	// 128-block run could not be compared cell by cell); the 512-block row
	// (no victim ever) coincides too.
	recorded := opt.scale(fig8Ops) == fig8Ops && opt.Seed == 0
	if recorded {
		t.Columns = append(t.Columns, "inclusive (parent)")
	}
	var noPLB sim.Report
	for _, row := range []struct {
		plb       int
		inclusive float64
	}{{0, 1.0000}, {16, 0.7838}, {64, 0.6136}, {128, 0.5254}, {512, 0.3513}} {
		plb := row.plb
		cfg := withWarmup(baseORAM(), p.Ops)
		cfg.ORAM.PLBBlocks = plb
		rep, err := runSim(opt, cfg, gf())
		if err != nil {
			return nil, fmt.Errorf("ablation_plb %d: %w", plb, err)
		}
		if plb == 0 {
			noPLB = rep
		}
		share := float64(rep.ORAM.PosMapPaths) / float64(rep.ORAM.PathAccesses)
		hits := float64(rep.ORAM.PLBHits)
		total := hits + float64(rep.ORAM.PLBMisses)
		hitRate := 0.0
		if total > 0 {
			hitRate = hits / total
		}
		cells := []float64{normTime(noPLB, rep), share, hitRate}
		if recorded {
			cells = append(cells, row.inclusive)
		}
		t.AddRow(fmt.Sprintf("%d", plb), cells...)
	}
	t.Notes = append(t.Notes,
		"ocean_c; norm_time is relative to no PLB, the configuration the inclusive and the exclusive PLB share (until PR 23: relative to 128 blocks)")
	if recorded {
		t.Notes = append(t.Notes,
			"inclusive (parent) is this sweep at commit 24ad361, the last whose PLB wrote victims back (proram-bench -exp ablation_plb -scale 1, each row over its no-PLB row); printed at scale 1, seed 0 only")
	}
	return t, nil
}

// ablationThreshold isolates §4.4's thresholding choice: the dynamic
// scheme with the static schedule vs the adaptive Equation 1, on a
// good-locality benchmark, a bad one, and the phase-change synthetic.
func ablationThreshold(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation_threshold",
		Title:   "Dynamic scheme speedup: static vs adaptive thresholding",
		Columns: []string{"static_thresh", "adaptive_thresh"},
	}
	staticT := superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
		MergeMode: superblock.ThresholdStatic, BreakMode: superblock.ThresholdStatic,
		CMerge: 1, CBreak: 1, Window: 1000}
	cases := []struct {
		name string
		gf   genFactory
		ops  uint64
	}{}
	for _, name := range []string{"ocean_c", "radix"} {
		p := trace.ByName(trace.Splash2(opt.scale(fig8Ops)), name)[0]
		p.Seed += opt.Seed
		cases = append(cases, struct {
			name string
			gf   genFactory
			ops  uint64
		}{name, modelFactory(p), p.Ops})
	}
	ops := opt.scale(fig67Ops)
	cases = append(cases, struct {
		name string
		gf   genFactory
		ops  uint64
	}{"phase_synth", syntheticFactory(ops, 0.5, ops/8, opt.Seed), ops})

	for _, c := range cases {
		base, err := runSim(opt, withWarmup(baseORAM(), c.ops), c.gf())
		if err != nil {
			return nil, err
		}
		st, err := runSim(opt, withWarmup(withScheme(baseORAM(), staticT), c.ops), c.gf())
		if err != nil {
			return nil, err
		}
		ad, err := runSim(opt, withWarmup(withScheme(baseORAM(), dynScheme()), c.ops), c.gf())
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, speedup(base, st), speedup(base, ad))
	}
	t.Notes = append(t.Notes,
		"static thresholding merges at counter >= 2n; adaptive uses Equation 1 feedback")
	return t, nil
}

// ablationOint evaluates the §2.5 dynamic-interval extension on a bursty
// workload: how many dummy accesses the adaptive ladder saves and what the
// declared leak costs.
func ablationOint(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation_oint",
		Title:   "Dynamic Oint on a bursty workload (vs fixed-interval periodic ORAM)",
		Columns: []string{"norm_time", "norm_dummies", "leaked_bits"},
	}
	ops := opt.scale(fig67Ops)
	// Bursty pattern: a compute-heavy profile whose long gaps force the
	// fixed schedule to burn dummies.
	p := trace.ModelParams{
		Name: "bursty", Ops: ops, WorkingSetBytes: 1 << 20, HotSetBytes: 192 << 10,
		HotFraction: 0.9, SeqFraction: 0.5, RunLen: 8, Gap: 600,
		WriteFraction: 0.25, Seed: 901 + opt.Seed,
	}
	gf := modelFactory(p)

	fixed := withWarmup(baseORAM(), p.Ops)
	fixed.ORAM.Periodic = true
	fixed.ORAM.Oint = 50
	fixedRep, err := runSim(opt, fixed, gf())
	if err != nil {
		return nil, err
	}
	t.AddRow("fixed", 1, 1, 0)

	for _, ladder := range []uint64{4, 16, 64} {
		cfg := withWarmup(baseORAM(), p.Ops)
		cfg.ORAM.Periodic = true
		cfg.ORAM.Oint = 50
		cfg.ORAM.DynamicOint = true
		cfg.ORAM.OintMax = 50 * ladder
		rep, err := runSim(opt, cfg, gf())
		if err != nil {
			return nil, fmt.Errorf("ablation_oint ladder=%d: %w", ladder, err)
		}
		normDummies := 0.0
		if fixedRep.ORAM.DummyAccesses > 0 {
			normDummies = float64(rep.ORAM.DummyAccesses) / float64(fixedRep.ORAM.DummyAccesses)
		}
		t.AddRow(fmt.Sprintf("ladder_x%d", ladder),
			normTime(fixedRep, rep), normDummies, float64(rep.ORAM.OintTransitions))
	}
	t.Notes = append(t.Notes,
		"fixed: Oint=50 throughout; ladder_xK adapts within [50, 50K] doubling per epoch",
		"leaked_bits = interval transitions (one bit each, the extension's declared leak)")
	return t, nil
}

// ablationPrefill shows why the simulator initializes the tree: a lazily
// populated ORAM under-reports tree congestion.
func ablationPrefill(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation_prefill",
		Title:   "Initialized vs lazily-populated tree (baseline ORAM, ocean_c)",
		Columns: []string{"cycles", "stash_high_water", "tree_used_fraction"},
	}
	p := trace.ByName(trace.Splash2(opt.scale(fig8Ops)), "ocean_c")[0]
	p.Seed += opt.Seed
	for _, prefill := range []bool{true, false} {
		cfg := withWarmup(baseORAM(), p.Ops)
		cfg.ORAM.Prefill = prefill
		rep, err := runSim(opt, cfg, modelFactory(p)())
		if err != nil {
			return nil, err
		}
		label := "prefilled"
		used := 0.49 // by construction: ~50% slot utilization
		if !prefill {
			label = "lazy"
			used = 0 // only touched blocks exist; see note
		}
		t.AddRow(label, float64(rep.Cycles), float64(rep.ORAM.StashHighWater), used)
	}
	t.Notes = append(t.Notes,
		"a lazy tree holds only touched blocks, so stash/eviction pressure is unrealistically low;",
		"experiments therefore default to the initialized (prefilled) tree")
	return t, nil
}
