package exp

import (
	"fmt"

	"proram/internal/obs/audit"
	"proram/internal/oram"
	"proram/internal/shard"
	"proram/internal/sim"
	"proram/internal/trace"
)

// Sharded-frontend experiments: the partition-count ablation and the
// pinned BENCH_0 baseline the ROADMAP's benchmark trajectory starts from.
func init() {
	register("ablation_shard", "Partitioned frontend: partition count × round width vs unified (P=1, R=6)", ablationShard)
	register("bench0", "BENCH_0 baseline: unified (P=1) vs sharded (P=8) frontend on the YCSB zipfian trace", bench0)
}

const (
	// shardBlocks covers YCSB's 8 MB table at 128-byte blocks.
	shardBlocks = 1 << 16
	// shardWindow is the closed-loop client count: requests admitted per
	// scheduling round.
	shardWindow = 32
	// bench0Ops / ablationShardOps are the full-scale operation counts.
	bench0Ops        = 20_000
	ablationShardOps = 8_000
)

// shardBase is the experiments' frontend configuration: dynamic PrORAM
// prefetching inside every partition, total cache budget held constant
// across partition counts so sweeps compare scheduling, not cache size.
func shardBase(parts int, seed uint64) shard.Config {
	o := oram.DefaultConfig()
	o.Super = dynScheme()
	return shard.Config{
		Partitions:    parts,
		Blocks:        shardBlocks,
		BlockBytes:    128,
		CacheBlocks:   4096,
		MaxSuperBlock: o.Super.MaxSize,
		Key:           []byte("proram-bench-key"),
		Seed:          11 + seed,
		ORAM:          o,
	}
}

// ycsbGen builds the zipfian trace both experiments replay.
func ycsbGen(ops, seed uint64) trace.Generator {
	c := trace.DefaultYCSB(ops)
	c.Seed += seed
	return trace.NewYCSB(c)
}

// ablationShard sweeps the partition count and the round width on the
// YCSB trace. More partitions shorten the makespan (rounds run P trees in
// parallel and each tree is shallower) but burn more padding when the
// zipfian skew leaves partitions idle; a wider round admits more misses
// per round but pads every idle partition to the same width. The fill
// ratio quantifies both trades; the latency columns show what a narrow
// round costs a hot partition, which serves at most one miss per round.
// Arrivals are counted per round, so a narrower round also raises the
// offered load per cycle: every width runs at 32 arrivals per round, and
// each narrower one again at 32 per six slots (the "/w=" rows), the old
// default's load per cycle. R=6 is the old default, the narrowest round
// that fit a miss's worst case before dirty victims were queued.
func ablationShard(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ablation_shard",
		Title: "Sharded frontend vs partition count and round width (YCSB zipfian, 32 clients per six slots or per round)",
		Columns: []string{"round_slots", "window", "norm_time", "fill_ratio", "cache_hit_rate", "norm_paths",
			"carryovers", "lat_p50", "lat_p99"},
	}
	ops := opt.scale(ablationShardOps)
	var base shard.Stats
	for _, parts := range []int{1, 8} {
		for _, slots := range []int{6, 4, 2} {
			label := fmt.Sprintf("P=%d/R=%d", parts, slots)
			windows := []int{shardWindow}
			if equal := (shardWindow*slots + 3) / 6; equal != shardWindow {
				windows = append(windows, equal)
			}
			for _, window := range windows {
				row := label
				if window != shardWindow {
					row = fmt.Sprintf("%s/w=%d", label, window)
				}
				cfg := shardBase(parts, opt.Seed)
				cfg.RoundSlots = slots
				aud := audit.New(audit.Config{}) // for its latency digest
				cfg.Audit = aud
				st, err := sim.RunSharded(cfg, ycsbGen(ops, opt.Seed), window)
				if err != nil {
					return nil, fmt.Errorf("ablation_shard %s: %w", row, err)
				}
				if parts == 1 && slots == 6 {
					base = st
				}
				lat := aud.Report().LatencyFor("all")
				t.AddRow(row,
					float64(slots),
					float64(window),
					float64(st.Cycles)/float64(base.Cycles),
					st.FillRatio(),
					float64(st.CacheHits)/float64(st.Ops()),
					float64(st.PathAccesses())/float64(base.PathAccesses()),
					float64(st.Carryovers),
					float64(lat.P50), float64(lat.P99))
			}
		}
	}
	t.Notes = append(t.Notes,
		"norm_time/norm_paths are relative to P=1/R=6 (the unified baseline at the old default round width)",
		"R=2 is the default; total client cache is constant across the sweep",
		"window is arrivals per round; a /w= row holds the arrival rate per slot at R=6's",
		"lat_p50/p99 are end-to-end request latencies in simulated cycles (queueing included)")
	return t, nil
}

// bench0 produces the first pinned benchmark baseline (BENCH_0.json):
// unified vs sharded on the zipfian trace, deterministic integers only so
// the committed artifact is byte-stable. Wall-clock time is deliberately
// absent — proram-bench reports it on stderr.
func bench0(opt Options) (*Table, error) {
	t := &Table{
		ID:      "bench0",
		Title:   "BENCH_0: unified vs sharded frontend on YCSB zipfian",
		Columns: []string{"ops", "cycles", "rounds", "real_accesses", "pad_accesses", "cache_hits", "carryovers", "fill_permille", "path_accesses"},
	}
	ops := opt.scale(bench0Ops)
	for _, tc := range []struct {
		label string
		parts int
	}{
		{"unified_p1", 1},
		{"sharded_p8", 8},
	} {
		st, err := sim.RunSharded(shardBase(tc.parts, opt.Seed), ycsbGen(ops, opt.Seed), shardWindow)
		if err != nil {
			return nil, fmt.Errorf("bench0 %s: %w", tc.label, err)
		}
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("bench0 %s: %w", tc.label, err)
		}
		t.AddRow(tc.label,
			float64(st.Ops()),
			float64(st.Cycles),
			float64(st.Rounds),
			float64(st.RealAccesses),
			float64(st.PadAccesses()),
			float64(st.CacheHits),
			float64(st.Carryovers),
			float64(st.FillPermille()),
			float64(st.PathAccesses()))
	}
	t.Notes = append(t.Notes,
		"every cell is a deterministic integer: two runs with the same scale and seed are byte-identical",
		"32 closed-loop clients; cycles is the slowest partition's simulated clock (makespan)")
	return t, nil
}
