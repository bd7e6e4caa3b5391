package exp

import (
	"fmt"

	"proram/internal/sim"
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
	register("fig15a", "Periodic ORAM accesses on Splash2 ("+ointLabel+")", fig15("fig15a", "Periodic ORAM, Splash2", splash2, true))
	register("fig15b", "Periodic ORAM accesses on SPEC06 ("+ointLabel+")", fig15("fig15b", "Periodic ORAM, SPEC06", spec06, true))
	register("fig15c", "Periodic ORAM accesses on DBMS ("+ointLabel+")", fig15("fig15c", "Periodic ORAM, DBMS", dbms, false))
}

// periodic turns on timing-channel protection at scaledOint.
func periodic(cfg sim.Config) sim.Config {
	cfg.ORAM.Periodic = true
	cfg.ORAM.Oint = scaledOint
	return cfg
}

// fig15 builds a Figure 15 table: per workload, the speedups of
// non-periodic baseline ORAM, periodic static and periodic dynamic, all
// relative to the periodic baseline ORAM, exactly as Figure 15 plots;
// averaged, it adds the avg and mem_avg rows.
func fig15(id, title string, suite func(Options) []workload, averaged bool) Runner {
	return func(opt Options) (*Table, error) {
		t := &Table{ID: id, Title: title, Columns: []string{"oram", "stat_intvl", "dyn_intvl"}}
		ws := suite(opt)
		for _, w := range ws {
			r, err := runEach(opt, w.ops, w.gf, periodic(baseORAM()), baseORAM(),
				periodic(withScheme(baseORAM(), statScheme(2))), periodic(withScheme(baseORAM(), dynScheme())))
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", id, w.name, err)
			}
			t.AddRow(w.name, speedup(r[0], r[1]), speedup(r[0], r[2]), speedup(r[0], r[3]))
		}
		t.Notes = append(t.Notes, "speedup relative to the baseline ORAM with periodic accesses ("+ointLabel+")")
		if averaged {
			t.addAverages(3, ws)
			t.Notes = append(t.Notes, "oram = non-periodic baseline; stat_intvl/dyn_intvl = schemes under periodicity")
		}
		return t, nil
	}
}
