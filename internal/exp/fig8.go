package exp

import (
	"fmt"

	"proram/internal/sim"
)

func init() {
	register("fig8a", "Speedup and normalized memory accesses of super block schemes on Splash2",
		suiteFigure("fig8a", "Super block schemes on Splash2", splash2))
	register("fig8b", "Speedup and normalized memory accesses of super block schemes on SPEC06",
		suiteFigure("fig8b", "Super block schemes on SPEC06", spec06))
	register("fig8c", "Speedup and normalized memory accesses of super block schemes on DBMS",
		suiteFigure("fig8c", "Super block schemes on DBMS (YCSB, TPCC)", dbms))
	// fig9 plots the prefetch miss rates of the same four systems per
	// benchmark; it runs them again rather than sharing fig8's runs.
	register("fig9a", "Prefetch miss rate on Splash2", missRateFigure("fig9a", "Prefetch miss rate, Splash2", splash2))
	register("fig9b", "Prefetch miss rate on SPEC06", missRateFigure("fig9b", "Prefetch miss rate, SPEC06", spec06))
}

// fig8Ops is the full-size operation count for the suite figures.
const fig8Ops = 800_000

// runSuite measures every workload of a suite under DRAM, baseline ORAM,
// the static scheme and PrORAM, in that order, using the standard warmup
// fraction so the measured region is steady state (caches full, super
// blocks mature).
func runSuite(opt Options, ws []workload) ([][]sim.Report, error) {
	reps := make([][]sim.Report, len(ws))
	for i, w := range ws {
		r, err := runEach(opt, w.ops, w.gf, baseDRAM(), baseORAM(),
			withScheme(baseORAM(), statScheme(2)), withScheme(baseORAM(), dynScheme()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps[i] = r
	}
	return reps, nil
}

// suiteFigure builds a fig8-style table with avg and mem_avg rows.
func suiteFigure(id, title string, suite func(Options) []workload) Runner {
	return func(opt Options) (*Table, error) {
		t := &Table{
			ID:      id,
			Title:   title,
			Columns: []string{"stat_speedup", "dyn_speedup", "stat_norm_acc", "dyn_norm_acc", "oram_over_dram"},
		}
		ws := suite(opt)
		reps, err := runSuite(opt, ws)
		if err != nil {
			return nil, err
		}
		for i, w := range ws {
			dram, oram, stat, dyn := reps[i][0], reps[i][1], reps[i][2], reps[i][3]
			t.AddRow(w.name, speedup(oram, stat), speedup(oram, dyn),
				normAccesses(oram, stat), normAccesses(oram, dyn),
				float64(oram.Cycles)/float64(dram.Cycles))
		}
		t.addAverages(4, ws)
		t.Notes = append(t.Notes,
			"speedup = T_baselineORAM/T_scheme - 1; norm_acc = scheme ORAM accesses / baseline ORAM accesses",
			"oram_over_dram classifies memory intensity (paper threshold: 2x)")
		return t, nil
	}
}

// missRateFigure builds a fig9-style table: the static and dynamic
// schemes' prefetch miss rates, with an avg row.
func missRateFigure(id, title string, suite func(Options) []workload) Runner {
	return func(opt Options) (*Table, error) {
		t := &Table{ID: id, Title: title, Columns: []string{"stat_miss_rate", "dyn_miss_rate"}}
		ws := suite(opt)
		reps, err := runSuite(opt, ws)
		if err != nil {
			return nil, err
		}
		// The paper drops the two most compute-bound water benchmarks in
		// Figure 9 (they barely touch ORAM); keep every row here but note it.
		for i, w := range ws {
			t.AddRow(w.name, reps[i][2].PrefetchMissRate(), reps[i][3].PrefetchMissRate())
		}
		t.addAverages(2, nil)
		t.Notes = append(t.Notes, "miss rate = prefetched-but-unused / resolved prefetches")
		return t, nil
	}
}
