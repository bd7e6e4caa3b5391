package exp

import (
	"fmt"

	"proram/internal/sim"
)

func init() {
	register("fig10", "Merge/break coefficient sweep (Equation 1's C)", fig10)
	register("fig11", "DRAM bandwidth sweep", fig11)
	register("fig12", "Stash size sweep", fig12)
	register("fig13", "Z value comparison", fig13)
	register("fig14", "Cacheline size sweep", fig14)
}

// fig10 sweeps CMerge/CBreak as in §5.5.1 (m{x}b{y} labels).
func fig10(opt Options) (*Table, error) {
	t := &Table{ID: "fig10", Title: "Dynamic-scheme speedup per merge/break coefficient"}
	cfgs := []sim.Config{baseORAM()}
	for _, c := range [][2]float64{{1, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 8}} {
		t.Columns = append(t.Columns, fmt.Sprintf("m%gb%g", c[0], c[1]))
		sb := dynScheme()
		sb.CMerge, sb.CBreak = c[0], c[1]
		cfgs = append(cfgs, withScheme(baseORAM(), sb))
	}
	for _, w := range splash2Named(opt, "ocean_c", "ocean_nc", "fft", "volrend") {
		r, err := runEach(opt, w.ops, w.gf, cfgs...)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", w.name, err)
		}
		cells := make([]float64, 0, len(cfgs)-1)
		for _, rep := range r[1:] {
			cells = append(cells, speedup(r[0], rep))
		}
		t.AddRow(w.name, cells...)
	}
	t.Notes = append(t.Notes, "mXbY: CMerge=X, CBreak=Y in Equation 1; speedup over baseline ORAM")
	return t, nil
}

// sweepFigure builds a fig11/12/13/14-style table: rows are
// benchmark/sweep-point combinations, columns are oram/stat/dyn completion
// times normalized to the insecure DRAM system under the same mutation.
func sweepFigure(opt Options, id, title string, benches []workload,
	points []string, mutate func(point string, cfg *sim.Config)) (*Table, error) {
	t := &Table{ID: id, Title: title, Columns: []string{"oram", "stat", "dyn"}}
	for _, w := range benches {
		for _, pt := range points {
			cfgs := []sim.Config{baseDRAM(), baseORAM(),
				withScheme(baseORAM(), statScheme(2)), withScheme(baseORAM(), dynScheme())}
			for i := range cfgs {
				mutate(pt, &cfgs[i])
			}
			r, err := runEach(opt, w.ops, w.gf, cfgs...)
			if err != nil {
				return nil, fmt.Errorf("%s %s@%s: %w", id, w.name, pt, err)
			}
			t.AddRow(w.name+"/"+pt, normTime(r[0], r[1]), normTime(r[0], r[2]), normTime(r[0], r[3]))
		}
	}
	t.Notes = append(t.Notes, "completion time normalized to the insecure DRAM system (lower is better)")
	return t, nil
}

func fig11(opt Options) (*Table, error) {
	return sweepFigure(opt, "fig11", "Completion time vs. DRAM bandwidth (GB/s)",
		splash2Named(opt, "ocean_c", "volrend"),
		[]string{"4", "8", "16"},
		func(pt string, cfg *sim.Config) {
			var bw float64
			fmt.Sscanf(pt, "%f", &bw)
			cfg.DRAM.BandwidthGBps = bw
		})
}

func fig12(opt Options) (*Table, error) {
	return sweepFigure(opt, "fig12", "Completion time vs. stash size (blocks)",
		splash2Named(opt, "ocean_c", "volrend"),
		[]string{"25", "50", "100", "200", "400"},
		func(pt string, cfg *sim.Config) {
			var n int
			fmt.Sscanf(pt, "%d", &n)
			cfg.ORAM.StashLimit = n
		})
}

func fig13(opt Options) (*Table, error) {
	return sweepFigure(opt, "fig13", "Completion time vs. Z",
		splash2Named(opt, "fft", "ocean_c", "ocean_nc", "volrend"),
		[]string{"Z3", "Z4"},
		func(pt string, cfg *sim.Config) {
			if pt == "Z3" {
				cfg.ORAM.Z = 3
			} else {
				cfg.ORAM.Z = 4
			}
		})
}

func fig14(opt Options) (*Table, error) {
	return sweepFigure(opt, "fig14", "Completion time vs. cacheline size (bytes)",
		splash2Named(opt, "ocean_c", "volrend"),
		[]string{"64", "128", "256"},
		func(pt string, cfg *sim.Config) {
			var b int
			fmt.Sscanf(pt, "%d", &b)
			cfg.BlockBytes = b
			cfg.Hier.L1.LineBytes = b
			cfg.Hier.L2.LineBytes = b
		})
}
