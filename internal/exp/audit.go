package exp

import (
	"fmt"

	"proram/internal/dram/banked"
	"proram/internal/obs"
	"proram/internal/obs/audit"
	"proram/internal/sim"
	"proram/internal/superblock"
)

// The obliviousness-audit experiment: every shipped frontend configuration
// runs under the live auditor, and the per-configuration reports pin the
// AUDIT_2.json artifact (satellite of the BENCH_* baseline family).
func init() {
	register("audit2", "AUDIT_2 baseline: obliviousness auditor over the shipped frontend configurations", audit2)
}

// audit2Ops is the full-scale operation count: enough accesses that every
// statistical test clears its minimum-samples gate on every partition.
// The timing test is the last to clear it: a two-slot round times two
// slots where a six-slot one timed five, and at P=1 the 32 clients leave
// no slot idle, so its padding population is the pad-slot victim
// write-backs alone, which begin once the 4,096-line client cache is full.
// Every partition clears the gate from about 30,000 operations; this is
// twice that.
const audit2Ops = 60_000

// auditCase is one shipped frontend configuration.
type auditCase struct {
	label  string
	parts  int
	banked *banked.Config
	scheme superblock.Config
}

// audit2Configs are the shipped frontend configurations the auditor must
// clear: the unified-equivalent single partition, the default sharded
// spread, the banked subtree-packed device under shared-channel
// contention, and the prior static prefetcher scheme.
func audit2Configs() []auditCase {
	packed := banked.DefaultConfig()
	return []auditCase{
		{"p1_flat_dyn", 1, nil, dynScheme()},
		{"p4_flat_dyn", 4, nil, dynScheme()},
		{"p8_packed_dyn", 8, &packed, dynScheme()},
		{"p4_flat_static", 4, nil, statScheme(2)},
	}
}

// audit2 audits every shipped configuration on the YCSB zipfian trace and
// tabulates the verdicts: worst test statistics against their critical
// values (exact milli-units), observed shape violations, and the
// end-to-end latency tail, read from the run's shard.latency_e2e
// histogram. Every cell is a deterministic integer, so the committed
// artifact is byte-stable. A failed audit is an experiment error — the
// artifact only ever pins passing baselines.
func audit2(opt Options) (*Table, error) {
	t := &Table{
		ID:    "audit2",
		Title: "AUDIT_2: obliviousness auditor over the shipped frontend configurations (YCSB zipfian)",
		Columns: []string{
			"pass", "accesses",
			"uniformity_stat_milli", "uniformity_crit_milli",
			"serial_stat_milli", "serial_crit_milli",
			"timing_stat_milli", "timing_crit_milli",
			"shape_violations",
			"lat_p50", "lat_p99", "lat_p999",
		},
	}
	ops := opt.scale(audit2Ops)
	for _, tc := range audit2Configs() {
		cfg := shardBase(tc.parts, opt.Seed)
		cfg.ORAM.Super = tc.scheme
		cfg.Banked = tc.banked
		// The per-access timing test applies to flat-latency devices only:
		// the banked model exists to expose per-access variance (row hits,
		// bank conflicts), and the frontend equalizes timing at the round
		// barrier, not per access — real superblock bursts are faster per
		// path than single-path dummies there by design (DESIGN.md §13).
		cfg.Audit = audit.New(audit.Config{Timing: tc.banked == nil})
		cfg.Recorder = obs.New(obs.Options{})
		if _, err := sim.RunSharded(cfg, ycsbGen(ops, opt.Seed), shardWindow); err != nil {
			return nil, fmt.Errorf("audit2 %s: %w", tc.label, err)
		}
		rep := cfg.Audit.Report()
		opt.Audit.Add(tc.label, rep)
		if !rep.Pass {
			detail := "no findings recorded"
			if len(rep.Findings) > 0 {
				detail = rep.Findings[0]
			}
			return nil, fmt.Errorf("audit2 %s: obliviousness audit failed: %s", tc.label, detail)
		}
		uniStat, uniCrit := rep.Worst("leaf_uniformity")
		serStat, serCrit := rep.Worst("serial_independence")
		timStat, timCrit := rep.Worst("timing_indistinguishability")
		lat := cfg.Recorder.Histogram("shard.latency_e2e") // registered by the frontend
		t.AddRow(tc.label,
			1,
			float64(rep.Accesses),
			float64(uniStat), float64(uniCrit),
			float64(serStat), float64(serCrit),
			float64(timStat), float64(timCrit),
			float64(rep.Violations("round_shape")+rep.Violations("flush_equality")),
			float64(lat.Quantile(50, 100)), float64(lat.Quantile(99, 100)), float64(lat.Quantile(999, 1000)))
	}
	t.Notes = append(t.Notes,
		"stat/crit are exact milli-unit chi-square statistics vs their alpha=1e-5 critical values (worst scope per test)",
		"lat_p50/p99/p999 are streaming end-to-end request latencies in simulated cycles",
		"a failing audit aborts the experiment: this artifact only pins passing baselines")
	return t, nil
}
