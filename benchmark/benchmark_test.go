package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testSizes is the five workloads at about a hundredth of their size, so
// the whole file runs in a few seconds.
func testSizes() sizes {
	return sizes{
		blocks:        1 << 11,
		cacheBlocks:   128,
		blockBytes:    128,
		simBlocks:     70_000,
		simWorkingSet: 256 << 10,
		windows:       10,
		windowOps: map[string]int{
			"ram_uniform_rw":  192,
			"ram_scan_ro":     512,
			"sharded_zipf_rw": 128,
			"sim_locality":    192,
			"sim_ycsb_packed": 1600,
		},
		shardWarm: 96,
		setupRuns: 3,
		replayCap: 2_000,
	}
}

// firstRuns caches one untraced and one traced run of every workload at
// seed 1; most tests look at these.
var firstRuns struct {
	once sync.Once
	res  map[string][2]*result
	err  error
}

func runsAtSeedOne(t *testing.T) map[string][2]*result {
	t.Helper()
	firstRuns.once.Do(func() {
		firstRuns.res = make(map[string][2]*result)
		for _, w := range workloads {
			var pair [2]*result
			for i, traced := range []bool{false, true} {
				res, err := runWorkload(w, testSizes(), options{seed: 1, traced: traced})
				if err != nil {
					firstRuns.err = err
					return
				}
				pair[i] = res
			}
			firstRuns.res[w.name] = pair
		}
	})
	if firstRuns.err != nil {
		t.Fatal(firstRuns.err)
	}
	return firstRuns.res
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// TestContractFileMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workload.go in step, name by name.
func TestContractFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), table has %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, in the table %v", d.Name, g.Bound, d.Bound)
			case !bounded && (g.Bound != nil || d.Bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestEveryMetricEmittedOnce checks that every workload emits exactly the
// metrics of its table, each with its unit, that no operation fails, and
// that the end-to-end metrics are never zero.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for name, pair := range runsAtSeedOne(t) {
		for _, res := range pair {
			defs := defsFor(res.Traced)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", name, res.Traced, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, table has %d", name, res.Traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: %s missing", name, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				}
				if !res.Traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", name, d.Name, m.Value)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				}
			}
			line, err := res.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Errorf("%s: contract line has keys %v", name, obj)
			}
			if string(obj["correct"]) != "true" {
				t.Errorf("%s: correct = %s", name, obj["correct"])
			}
		}
	}
}

// TestLayersThatDoNotApplyReadZero pins which layers a workload exercises.
func TestLayersThatDoNotApplyReadZero(t *testing.T) {
	runs := runsAtSeedOne(t)
	zero := map[string][]string{
		"ram_uniform_rw":  {"shard.rounds_per_kop", "cache.access_ns", "banked.path_ns"},
		"ram_scan_ro":     {"seal.seal_ns_per_call", "oram.write_calls_per_op", "shard.replay_ns_per_round"},
		"sharded_zipf_rw": {"cache.access_ns", "banked.path_ns", "sim.prefill_s"},
		"sim_locality":    {"seal.calls_per_op", "banked.path_ns", "shard.fill_permille", "proram.cache_hit_rate"},
		"sim_ycsb_packed": {"seal.calls_per_op", "dram.bulk_ns", "shard.fill_permille"},
	}
	nonzero := map[string][]string{
		"ram_uniform_rw":  {"seal.seal_ns_per_call", "oram.share", "tree.path_ns", "stash.evict_ns", "posmap.walk_ns", "dram.bulk_ns"},
		"ram_scan_ro":     {"seal.open_ns_per_call", "proram.cache_hit_rate", "superblock.prefetch_issued_per_op"},
		"sharded_zipf_rw": {"shard.rounds_per_kop", "shard.replay_ns_per_round", "shard.partmap_lookup_ns", "shard.pad_per_real"},
		"sim_locality":    {"cache.access_ns", "trace.next_ns", "cpu.null_run_ns_per_op", "dram.bulk_ns", "cache.llc_miss_rate", "oram.sim_cycles_per_op"},
		"sim_ycsb_packed": {"banked.path_ns", "banked.row_hit_rate", "cache.access_ns"},
	}
	for name, pair := range runs {
		for _, m := range zero[name] {
			if v := pair[1].Metrics[m].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer not on this workload's path)", name, m, v)
			}
		}
		for _, m := range nonzero[name] {
			if v := pair[1].Metrics[m].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, v)
			}
		}
	}
}

// TestExactMetricsRepeat runs every deterministic workload a second time
// with the same seed: exact metrics must be bit-identical, and the traced
// run's per-kind path counts must add up to the untraced run's total.
func TestExactMetricsRepeat(t *testing.T) {
	runs := runsAtSeedOne(t)
	for _, w := range workloads {
		if w.clients != 1 {
			continue
		}
		first := runs[w.name]
		for i, traced := range []bool{false, true} {
			again, err := runWorkload(w, testSizes(), options{seed: 1, traced: traced})
			if err != nil {
				t.Fatal(err)
			}
			if again.StreamHash != first[i].StreamHash {
				t.Errorf("%s: same seed, different op stream", w.name)
			}
			for _, d := range defsFor(traced) {
				a, b := first[i].Metrics[d.Name].Value, again.Metrics[d.Name].Value
				if d.Exact && math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: exact metric %s read %v then %v", w.name, d.Name, a, b)
				}
			}
		}
		var sum float64
		for _, k := range []string{"data", "posmap", "writeback", "plbwb", "bgevict", "dummy"} {
			sum += first[1].Metrics["oram.paths_"+k+"_per_op"].Value
		}
		if total := first[0].Metrics["path_accesses_per_op"].Value; math.Abs(sum-total) > 1e-9 {
			t.Errorf("%s: per-kind paths sum to %v per op, the untraced run counted %v", w.name, sum, total)
		}
	}
}

// TestSeedChangesTheStream checks that the seed reaches the generators.
func TestSeedChangesTheStream(t *testing.T) {
	runs := runsAtSeedOne(t)
	for _, w := range workloads {
		other, err := runWorkload(w, testSizes(), options{seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if other.StreamHash == runs[w.name][0].StreamHash {
			t.Errorf("%s: seeds 1 and 2 generated the same op stream", w.name)
		}
		if other.Failed != 0 {
			t.Errorf("%s seed 2: %v", w.name, other.Failures)
		}
	}
}

// TestWrongReplyFailsTheCommand flips one oracle byte and expects the run
// to count a failed operation and the command to exit nonzero.
func TestWrongReplyFailsTheCommand(t *testing.T) {
	for _, name := range []string{"ram_uniform_rw", "ram_scan_ro", "sharded_zipf_rw"} {
		w, _ := findWorkload(name)
		var stdout, stderr bytes.Buffer
		code := runAll([]workload{w}, testSizes(), options{seed: 1, corruptOracle: true}, "", &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted oracle", name)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var last struct {
			Correct bool   `json:"correct"`
			Failed  uint64 `json:"failed"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
		}
		if last.Correct || last.Failed == 0 {
			t.Errorf("%s: last line reports correct=%v failed=%d", name, last.Correct, last.Failed)
		}
	}
}

// TestCompare drives -compare over result files: identical files agree,
// a moved exact metric and a timed metric beyond its bound are flagged.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	res := runsAtSeedOne(t)["ram_uniform_rw"]
	for _, r := range res {
		if err := appendResult(base, r); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name string, mutate func(m map[string]measurement)) string {
		path := filepath.Join(dir, name)
		for _, r := range res {
			c := *r
			c.Metrics = make(map[string]measurement)
			for k, v := range r.Metrics {
				c.Metrics[k] = v
			}
			mutate(c.Metrics)
			if err := appendResult(path, &c); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	scale := func(metric string, f float64) func(map[string]measurement) {
		return func(m map[string]measurement) {
			if v, ok := m[metric]; ok {
				v.Value *= f
				m[metric] = v
			}
		}
	}
	cases := []struct {
		name string
		path string
		want int
	}{
		{"identical", base, 0},
		{"timed metric inside its bound", write("in.json", scale("ops_per_s", 0.95)), 0},
		{"timed metric better", write("better.json", scale("op_p99_us", 0.5)), 0},
		{"timed metric beyond its bound", write("slow.json", scale("ops_per_s", 0.70)), 1},
		{"exact end-to-end metric moved", write("paths.json", scale("path_accesses_per_op", 1.0001)), 1},
		{"exact per-layer metric moved", write("layer.json", scale("oram.paths_data_per_op", 0.999)), 1},
		{"per-layer timing moved", write("timing.json", scale("tree.path_ns", 3)), 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := compareFiles(base, c.path, &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s%s", c.name, got, c.want, stdout.String(), stderr.String())
		}
	}
}

// TestReferenceKernelDoesNotAllocate keeps the reference kernel out of the
// allocation metrics and away from the collector.
func TestReferenceKernelDoesNotAllocate(t *testing.T) {
	ref := newReference()
	if n := testing.AllocsPerRun(3, func() { ref.run() }); n != 0 {
		t.Errorf("one kernel run allocates %v times", n)
	}
}
