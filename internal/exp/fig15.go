package exp

import (
	"fmt"

	"proram/internal/sim"
	"proram/internal/trace"
)

// scaledOint is the periodic-access interval, in cycles, that every
// periodic experiment runs. The paper uses Oint = 100 against a 2364-cycle
// path access (a 4.2% spacing overhead); the default simulated ORAM is
// smaller and faster, so the interval is scaled to preserve the paper's
// Oint-to-path-latency ratio.
const scaledOint = 50

// ointLabel names both intervals: the paper's and the one run here.
var ointLabel = fmt.Sprintf("paper Oint = 100, run at %d scaled to path latency", scaledOint)

func init() {
	register("fig15a", "Periodic ORAM accesses on Splash2 ("+ointLabel+")", func(o Options) (*Table, error) {
		return fig15Suite("fig15a", "Periodic ORAM, Splash2", trace.Splash2(o.scale(fig8Ops)), o,
			trace.Splash2MemoryIntensive)
	})
	register("fig15b", "Periodic ORAM accesses on SPEC06 ("+ointLabel+")", func(o Options) (*Table, error) {
		return fig15Suite("fig15b", "Periodic ORAM, SPEC06", trace.SPEC06(o.scale(fig8Ops)), o,
			trace.SPEC06MemoryIntensive)
	})
	register("fig15c", "Periodic ORAM accesses on DBMS ("+ointLabel+")", fig15c)
}

// periodic turns on timing-channel protection at scaledOint.
func periodic(cfg sim.Config) sim.Config {
	cfg.ORAM.Periodic = true
	cfg.ORAM.Oint = scaledOint
	return cfg
}

// fig15Row measures one workload: speedups of non-periodic baseline ORAM,
// periodic static, and periodic dynamic — all relative to the periodic
// baseline ORAM, exactly as Figure 15 plots.
func fig15Row(opt Options, name string, ops uint64, gf genFactory) (oramS, statS, dynS float64, err error) {
	periodicBase, err := runSim(opt, withWarmup(periodic(baseORAM()), ops), gf())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s/periodic: %w", name, err)
	}
	plain, err := runSim(opt, withWarmup(baseORAM(), ops), gf())
	if err != nil {
		return 0, 0, 0, err
	}
	statRep, err := runSim(opt, withWarmup(periodic(withScheme(baseORAM(), statScheme(2))), ops), gf())
	if err != nil {
		return 0, 0, 0, err
	}
	dynRep, err := runSim(opt, withWarmup(periodic(withScheme(baseORAM(), dynScheme())), ops), gf())
	if err != nil {
		return 0, 0, 0, err
	}
	return speedup(periodicBase, plain), speedup(periodicBase, statRep), speedup(periodicBase, dynRep), nil
}

func fig15Suite(id, title string, suite []trace.ModelParams, opt Options,
	memIntensive func(string) bool) (*Table, error) {
	t := &Table{ID: id, Title: title, Columns: []string{"oram", "stat_intvl", "dyn_intvl"}}
	var sa, sb, sc float64
	var ma, mb, mc float64
	memN := 0
	for _, p := range suite {
		p.Seed += opt.Seed
		o, s, d, err := fig15Row(opt, p.Name, p.Ops, modelFactory(p))
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, o, s, d)
		sa += o
		sb += s
		sc += d
		if memIntensive(p.Name) {
			ma += o
			mb += s
			mc += d
			memN++
		}
	}
	n := float64(len(suite))
	t.AddRow("avg", sa/n, sb/n, sc/n)
	if memN > 0 {
		m := float64(memN)
		t.AddRow("mem_avg", ma/m, mb/m, mc/m)
	}
	t.Notes = append(t.Notes,
		"speedup relative to the baseline ORAM with periodic accesses ("+ointLabel+")",
		"oram = non-periodic baseline; stat_intvl/dyn_intvl = schemes under periodicity")
	return t, nil
}

func fig15c(opt Options) (*Table, error) {
	t := &Table{ID: "fig15c", Title: "Periodic ORAM, DBMS", Columns: []string{"oram", "stat_intvl", "dyn_intvl"}}
	ycsbCfg := trace.DefaultYCSB(opt.scale(fig8Ops))
	ycsbCfg.Seed += opt.Seed
	o, s, d, err := fig15Row(opt, "YCSB", ycsbCfg.Ops, func() trace.Generator { return trace.NewYCSB(ycsbCfg) })
	if err != nil {
		return nil, err
	}
	t.AddRow("YCSB", o, s, d)
	tp := trace.TPCC(opt.scale(fig8Ops))
	tp.Seed += opt.Seed
	o, s, d, err = fig15Row(opt, "TPCC", tp.Ops, modelFactory(tp))
	if err != nil {
		return nil, err
	}
	t.AddRow("TPCC", o, s, d)
	t.Notes = append(t.Notes, "speedup relative to the baseline ORAM with periodic accesses ("+ointLabel+")")
	return t, nil
}
