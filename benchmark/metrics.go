package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// metricDef names one metric. The two tables below are the single source
// of truth; BENCHMARK.json repeats them and benchmark_test.go keeps the
// two in step.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the base median by which an end-to-end metric
	// may get worse before -compare flags it (0 for per-layer metrics).
	Bound float64
	// Exact marks integer-derived metrics that repeat bit-for-bit for a
	// seed on the deterministic (single-client) workloads; -compare flags
	// any movement of these at all.
	Exact bool
}

// endToEnd is what a user of the library or the simulator sees, measured
// with tracing off. Every workload emits every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "path_accesses_per_op", Unit: "count", Better: "lower", Bound: 0.10, Exact: true},
}

// perLayer comes from the traced run. A metric that does not apply to a
// workload (seal on the simulator, shard on the unified RAM) reads 0 there.
var perLayer = []metricDef{
	{Name: "proram.cache_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "proram.cache_self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "oram.read_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "oram.read_calls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.write_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "oram.write_calls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.share", Unit: "ratio", Better: "lower"},
	{Name: "oram.ns_per_path_access", Unit: "ns", Better: "lower"},
	{Name: "oram.sim_cycles_per_access", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "oram.sim_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "oram.paths_data_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.paths_posmap_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.paths_writeback_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.paths_plbwb_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.paths_bgevict_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "oram.paths_dummy_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "posmap.walk_ns", Unit: "ns", Better: "lower"},
	{Name: "posmap.plb_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "posmap.plb_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "stash.evict_ns", Unit: "ns", Better: "lower"},
	{Name: "stash.placed_per_path", Unit: "count", Better: "higher", Exact: true},
	{Name: "stash.high_water", Unit: "count", Better: "lower", Exact: true},
	{Name: "tree.path_ns", Unit: "ns", Better: "lower"},
	{Name: "seal.seal_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "seal.open_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "seal.calls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "seal.share", Unit: "ratio", Better: "lower"},
	{Name: "superblock.merges_per_kop", Unit: "1/kop", Better: "higher", Exact: true},
	{Name: "superblock.breaks_per_kop", Unit: "1/kop", Better: "lower", Exact: true},
	{Name: "superblock.prefetch_issued_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "superblock.prefetch_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "dram.bulk_ns", Unit: "ns", Better: "lower"},
	{Name: "banked.path_ns", Unit: "ns", Better: "lower"},
	{Name: "banked.row_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "shard.partmap_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.store_load_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "shard.replay_ns_per_round", Unit: "ns", Better: "lower"},
	{Name: "shard.rounds_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "shard.fill_permille", Unit: "permille", Better: "higher"},
	{Name: "shard.pad_per_real", Unit: "count", Better: "lower"},
	{Name: "shard.carryovers", Unit: "count", Better: "lower"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.llc_miss_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "trace.next_ns", Unit: "ns", Better: "lower"},
	{Name: "cpu.null_run_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sim.prefill_s", Unit: "s", Better: "lower"},
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "audit.ingest_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// defsFor returns the metric table a run of the given kind emits.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// measurement is one reported metric. For a timed end-to-end metric Value
// is taken over the quiet windows and scaled by the reference kernel, Raw is
// the same as measured, and All is as measured over every window of the
// run; Min and Max are the slowest and fastest window (or set-up); N is the
// number of operations (or set-ups) behind Value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Raw   float64 `json:"raw,omitempty"`
	All   float64 `json:"all,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]measurement `json:"metrics"`
	// StreamHash fingerprints the generated op stream (index, write) so a
	// reader can tell two runs saw the same inputs.
	StreamHash uint64 `json:"stream_hash"`
	// RefSlowdown is the reference kernel's time in the run's quiet tenth
	// over its nominal time: what the timed metrics were scaled by.
	RefSlowdown float64 `json:"ref_slowdown,omitempty"`
}

func newResult(w string, seed uint64, traced bool) *result {
	return &result{Workload: w, Seed: seed, Traced: traced, Metrics: make(map[string]measurement)}
}

// set records a metric; the unit comes from the definition tables so a
// metric can never be printed with the wrong one.
func (r *result) set(name string, m measurement) {
	for _, d := range defsFor(r.Traced) {
		if d.Name == name {
			m.Unit = d.Unit
			r.Metrics[name] = m
			return
		}
	}
	r.fail("internal: metric %q is not in the %v table", name, r.Traced)
}

func (r *result) setValue(name string, v float64) { r.set(name, measurement{Value: v}) }

// fail records a failed check. Each counts as one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// complete fills every metric of the run's table that the workload did
// not set with 0 ("does not apply") and reports end-to-end ones as
// failures, since those must exist everywhere.
func (r *result) complete() {
	for _, d := range defsFor(r.Traced) {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if !r.Traced {
			r.fail("end-to-end metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = measurement{Unit: d.Unit}
	}
}

// print writes the human-readable table.
func (r *result) print(w io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "## %s  seed=%d  (%s)  attempted=%d failed=%d\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	if r.RefSlowdown != 0 {
		fmt.Fprintf(w, "reference kernel at %.4f of its nominal time\n", r.RefSlowdown)
	}
	for _, d := range defsFor(r.Traced) {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-36s %16.6f %-8s", d.Name, m.Value, m.Unit)
		if m.Raw != 0 {
			fmt.Fprintf(w, "  as measured %.6f  all windows %.6f", m.Raw, m.All)
		}
		if m.N > 0 && (m.Min != 0 || m.Max != 0) {
			fmt.Fprintf(w, "  min %.6f  max %.6f", m.Min, m.Max)
		}
		if m.N > 0 {
			fmt.Fprintf(w, "  n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// contractLine renders the one-object summary the driver reads from the
// last line of standard output.
func (r *result) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for _, d := range defsFor(r.Traced) {
		m := r.Metrics[d.Name]
		metrics[d.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	attempted := r.Attempted
	if attempted == 0 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, attempted, r.Failed, metrics})
}

// median returns the middle value (mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf reports the median of repeated measurements with their range.
func medianOf(v []float64) measurement {
	return measurement{Value: median(v), Min: slices.Min(v), Max: slices.Max(v), N: len(v)}
}

// quietShare is the share of a run's windows that the timed end-to-end
// metrics are computed over: the fastest tenth, by wall time. The sandbox
// is a two-core guest on a shared host whose other tenants come in bursts;
// the fastest windows are the ones they disturbed least (README.md,
// "Windows"). What is left after that, minutes in which every window is
// slow, the reference kernel takes out (reference.go).
const quietShare = 0.10

// quietTenth returns the fastest tenth of ws under by.
func quietTenth(ws []windowStat, by func(windowStat) int64) []windowStat {
	s := slices.Clone(ws)
	slices.SortFunc(s, func(a, b windowStat) int { return cmp.Compare(by(a), by(b)) })
	return s[:max(1, int(quietShare*float64(len(s))))]
}

// reportWindows fills the timed end-to-end metrics: rate and latency
// percentiles over the quiet tenth of the windows, scaled by how much
// slower than nominal the quiet tenth of the reference kernel's runs was. A
// latency sample covers opsPerSample operations.
func reportWindows(res *result, ws []windowStat, opsPerWindow, opsPerSample int) {
	quiet := quietTenth(ws, func(s windowStat) int64 { return s.ns })
	var refNS float64
	refQuiet := quietTenth(ws, func(s windowStat) int64 { return s.ref })
	for _, s := range refQuiet {
		refNS += float64(s.ref) / float64(len(refQuiet))
	}
	slow := refNS / refNominalNS
	res.RefSlowdown = slow

	rate := func(ws []windowStat) float64 {
		return float64(len(ws)*opsPerWindow) / (totalNS(ws) / 1e9)
	}
	pooled := func(ws []windowStat) []int32 {
		var lat []int32
		for _, s := range ws {
			lat = append(lat, s.lat...)
		}
		slices.Sort(lat)
		return lat
	}
	us := func(sorted []int32, q float64) float64 {
		return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]) / float64(opsPerSample) / 1e3
	}
	n := len(quiet) * opsPerWindow
	byTime := func(a, b windowStat) int { return cmp.Compare(a.ns, b.ns) }
	slowest, fastest := slices.MaxFunc(ws, byTime), slices.MinFunc(ws, byTime)
	res.set("ops_per_s", measurement{Value: rate(quiet) * slow, Raw: rate(quiet), All: rate(ws),
		Min: rate([]windowStat{slowest}), Max: rate([]windowStat{fastest}), N: n})
	q, all := pooled(quiet), pooled(ws)
	for _, p := range []struct {
		name string
		q    float64
	}{{"op_p50_us", 0.50}, {"op_p99_us", 0.99}} {
		res.set(p.name, measurement{Value: us(q, p.q) / slow, Raw: us(q, p.q), All: us(all, p.q), N: n})
	}
}

// totalNS is the time the windows themselves took.
func totalNS(ws []windowStat) float64 {
	var ns int64
	for _, s := range ws {
		ns += s.ns
	}
	return float64(ns)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
