package exp

import (
	"fmt"

	"proram/internal/prefetch"
	"proram/internal/trace"
)

func init() {
	register("fig5", "Traditional data prefetching on DRAM and ORAM", fig5)
}

// fig5 reproduces the §5.2 study: a stream prefetcher helps the DRAM
// system but not the ORAM system, because ORAM has no spare bandwidth for
// prefetch requests.
func fig5(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Traditional data prefetching on DRAM and ORAM (speedup of adding a stream prefetcher)",
		Columns: []string{"dram_pre", "oram_pre"},
	}
	pf := prefetch.DefaultConfig()
	dramPre, oramPre := baseDRAM(), baseORAM()
	dramPre.Prefetch, oramPre.Prefetch = &pf, &pf
	for _, w := range splash2Named(opt, trace.Fig5Splash2Names...) {
		r, err := runEach(opt, w.ops, w.gf, baseDRAM(), dramPre, baseORAM(), oramPre)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.name, err)
		}
		t.AddRow(w.name, speedup(r[0], r[1]), speedup(r[2], r[3]))
	}
	t.addAverages(2, nil)
	t.Notes = append(t.Notes,
		"dram_pre: speedup of DRAM+prefetcher over DRAM; oram_pre: speedup of ORAM+prefetcher over ORAM")
	return t, nil
}
