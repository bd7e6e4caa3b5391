package exp

import (
	"fmt"

	"proram/internal/dram/banked"
	"proram/internal/sim"
	"proram/internal/trace"
)

// DRAM co-design experiments: the flat/banked/packed device ablation and
// the pinned BENCH_1 baseline recording simulated cycles per ORAM access
// under each memory model.
func init() {
	register("ablation_dram", "Banked DRAM: flat vs banked vs banked+subtree-packed across trace models", ablationDRAM)
	register("bench1", "BENCH_1 baseline: simulated cycles per ORAM access under flat, banked, and packed DRAM", bench1)
}

const (
	// dramBlocks sizes the ORAM to the trace models' footprint (8 MB at
	// 128-byte blocks) so the tree depth matches what the layout packs.
	dramBlocks = 1 << 16
	// bench1Ops / ablationDRAMOps are the full-scale operation counts.
	bench1Ops       = 20_000
	ablationDRAMOps = 8_000
)

// dramVariant is one memory model under test.
type dramVariant struct {
	name string
	cfg  *banked.Config // nil = the flat channel, Table 1's model
}

// dramVariants returns the three devices every DRAM experiment compares.
func dramVariants() []dramVariant {
	linear := banked.DefaultConfig()
	linear.Layout = banked.LayoutLinear
	packed := banked.DefaultConfig()
	return []dramVariant{
		{"flat", nil},
		{"banked", &linear},
		{"packed", &packed},
	}
}

// dramModels are the trace profiles the ablation sweeps: a streaming scan,
// a strided walk (short runs separated by jumps), and a uniform random
// reference stream. They exist only here — the benchmark suites model
// whole programs, while these isolate one access pattern each so the
// device comparison is legible.
func dramModels(ops, seed uint64) []trace.ModelParams {
	mk := func(name string, seq float64, run int, seedOff uint64) trace.ModelParams {
		return trace.ModelParams{
			Name: name, Ops: ops, WorkingSetBytes: 4 << 20, HotSetBytes: 64 << 10,
			HotFraction: 0.35, SeqFraction: seq, RunLen: run,
			Gap: 8, WriteFraction: 0.3, Seed: 301 + seedOff + seed,
		}
	}
	return []trace.ModelParams{
		mk("sequential", 0.95, 64, 0),
		mk("strided", 0.70, 4, 1),
		mk("random", 0.05, 1, 2),
	}
}

// dramSim builds the Table 1 ORAM system scaled to the models' footprint,
// with the given device behind the controller.
func dramSim(v dramVariant) sim.Config {
	cfg := baseORAM()
	cfg.ORAM.NumBlocks = dramBlocks
	cfg.ORAM.Banked = v.cfg
	return cfg
}

// cyclesPerAccess is the experiments' headline integer metric.
func cyclesPerAccess(rep sim.Report) uint64 {
	if rep.ORAM.PathAccesses == 0 {
		return 0
	}
	return rep.Cycles / rep.ORAM.PathAccesses
}

// ablationDRAM compares the three devices on every trace model. Banking
// overlaps a path's per-bucket reads across channels; the subtree-packed
// layout additionally turns the hot top-of-tree levels into open-row hits.
func ablationDRAM(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation_dram",
		Title:   "DRAM device ablation: flat vs banked vs banked+subtree-packed",
		Columns: []string{"cycles", "path_accesses", "cycles_per_access", "row_hit_permille"},
	}
	ops := opt.scale(ablationDRAMOps)
	for _, m := range dramModels(ops, opt.Seed) {
		for _, v := range dramVariants() {
			rep, err := runSim(opt, dramSim(v), trace.NewModel(m))
			if err != nil {
				return nil, fmt.Errorf("ablation_dram %s/%s: %w", m.Name, v.name, err)
			}
			var hitPermille uint64
			if n := rep.Banked.RowHits + rep.Banked.RowMisses + rep.Banked.RowConflicts; n > 0 {
				hitPermille = rep.Banked.RowHits * 1000 / n
			}
			t.AddRow(m.Name+"/"+v.name,
				float64(rep.Cycles),
				float64(rep.ORAM.PathAccesses),
				float64(cyclesPerAccess(rep)),
				float64(hitPermille))
		}
	}
	t.Notes = append(t.Notes,
		"rows are model/device; flat is Table 1's serialized channel (row stats zero)",
		"banked overlaps per-bucket reads across 2 channels; packed additionally co-locates depth-k subtrees in DRAM rows")
	return t, nil
}

// bench1 produces the second pinned benchmark baseline (BENCH_1.json):
// deterministic integers only so the committed artifact is byte-stable.
// Wall-clock time is deliberately absent — proram-bench reports it on
// stderr.
func bench1(opt Options) (*Table, error) {
	t := &Table{
		ID:      "bench1",
		Title:   "BENCH_1: simulated cycles per ORAM access under flat, banked, and packed DRAM",
		Columns: []string{"ops", "cycles", "path_accesses", "cycles_per_access", "row_hits", "row_conflicts"},
	}
	ops := opt.scale(bench1Ops)
	for _, m := range dramModels(ops, opt.Seed) {
		for _, v := range dramVariants() {
			rep, err := runSim(opt, dramSim(v), trace.NewModel(m))
			if err != nil {
				return nil, fmt.Errorf("bench1 %s/%s: %w", m.Name, v.name, err)
			}
			t.AddRow(m.Name+"/"+v.name,
				float64(rep.MemOps),
				float64(rep.Cycles),
				float64(rep.ORAM.PathAccesses),
				float64(cyclesPerAccess(rep)),
				float64(rep.Banked.RowHits),
				float64(rep.Banked.RowConflicts))
		}
	}
	t.Notes = append(t.Notes,
		"every cell is a deterministic integer: two runs with the same scale and seed are byte-identical",
		"cycles_per_access = total simulated cycles / ORAM path accesses (integer division)")
	return t, nil
}
