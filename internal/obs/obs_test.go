package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// drive pushes a fixed emission sequence through a recorder.
func drive(r *Recorder) {
	var paths uint64
	r.Counter("oram.path_accesses", func() uint64 { return paths })
	hw := r.Gauge("stash.high_water")
	sb := r.Histogram("oram.sb_size")
	occ := r.Series("stash_occupancy")
	r.OnSample(func(cycle uint64) { occ.Record(cycle, float64(cycle/100)) })
	for i := uint64(0); i < 10; i++ {
		paths++
		hw.Max(float64(i))
		sb.Observe(1 + i%4)
		r.Span("oram", "data", i*1000, 900, "leaf", i)
		r.MaybeSample(i * 1000)
	}
	r.Instant("oram", "merge", 5000, "size", 4)
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	drive(r) // must not panic
	if err := r.WriteMetrics(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	r.Flight("nothing", 0)
}

func TestNilRecorderAllocationFree(t *testing.T) {
	var r *Recorder
	c := r.Counter("x", func() uint64 { return 1 })
	g := r.Gauge("y")
	v := r.GaugeView("v", func() float64 { return 1 })
	h := r.Histogram("z")
	s := r.Series("w")
	allocs := testing.AllocsPerRun(100, func() {
		g.Set(1)
		g.Max(2)
		h.Observe(3)
		if c.Value() != 0 || g.Value() != 0 || v.Value() != 0 || h.Quantile(1, 2) != 0 || s.Len() != 0 {
			t.Fatal("nil handle reports a value")
		}
		s.Record(4, 5)
		r.MaybeSample(6)
		r.Span("a", "b", 0, 1, "k", 2)
		r.Instant("a", "b", 0, "k", 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v times per op", allocs)
	}
}

func TestDeterministicExport(t *testing.T) {
	run := func() (metrics, trace string) {
		var tr bytes.Buffer
		r := New(Options{SampleEvery: 1000, TraceOut: &tr})
		drive(r)
		if err := r.CloseTrace(); err != nil {
			t.Fatal(err)
		}
		var m bytes.Buffer
		if err := r.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		return m.String(), tr.String()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 {
		t.Errorf("metrics dumps differ:\n%s\nvs\n%s", m1, m2)
	}
	if t1 != t2 {
		t.Errorf("trace dumps differ:\n%s\nvs\n%s", t1, t2)
	}
	// Both artifacts must be well-formed JSON.
	var any1, any2 interface{}
	if err := json.Unmarshal([]byte(m1), &any1); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(t1), &any2); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	events, ok := any2.([]interface{})
	if !ok || len(events) == 0 {
		t.Fatalf("trace is not a non-empty JSON array")
	}
}

func TestRegistryOrderAndDedup(t *testing.T) {
	var reg Registry
	three := func() uint64 { return 3 }
	five := func() uint64 { return 5 }
	a := reg.Counter("a", three)
	b := reg.Counter("b", five)
	if reg.Counter("a", five) != a || reg.Counter("b", three) != b {
		t.Fatal("re-registration did not return the existing handle")
	}
	if a.Value() != 3 || b.Value() != 5 {
		t.Fatalf("re-registration replaced the reader: a=%d b=%d", a.Value(), b.Value())
	}
	var sm Sampler
	var out bytes.Buffer
	if err := writeMetricsJSON(&out, &reg, &sm); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Index(s, `"a"`) > strings.Index(s, `"b"`) {
		t.Fatalf("export does not preserve registration order:\n%s", s)
	}
}

// TestHistogramBuckets: bin b holds the values of bit length b, the top
// bin included, and its interpolation does not overflow there.
func TestHistogramBuckets(t *testing.T) {
	var reg Registry
	h := reg.Histogram("h")
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 63, ^uint64(0)} {
		h.Observe(v)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 64: 2}
	for b, got := range h.counts {
		if got != want[b] {
			t.Fatalf("bin %d holds %d, want %d (counts %v)", b, got, want[b], h.counts)
		}
	}
	if h.n != 9 || h.max != ^uint64(0) {
		t.Fatalf("count %d max %d", h.n, h.max)
	}
	// Ranks 8 and 9 are the top bin's two values: the midpoints of its
	// lower and upper half.
	if got := h.Quantile(8, 9); got != 11529215046068469759 {
		t.Errorf("rank 8 = %d", got)
	}
	if got := h.Quantile(1, 1); got != 16140901064495857663 {
		t.Errorf("rank 9 = %d", got)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(Options{})
	r.ring = newRing(4)
	for i := uint64(0); i < 10; i++ {
		r.Instant("c", "e", i, "i", i)
	}
	ev := r.ring.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.TS != uint64(6+i) {
			t.Fatalf("event %d has ts %d, want %d (oldest-first order broken)", i, e.TS, 6+i)
		}
	}
}

func TestFlightDump(t *testing.T) {
	var sink bytes.Buffer
	r := New(Options{FlightOut: &sink})
	r.ring = newRing(8)
	r.Span("oram", "bg-evict", 100, 50, "leaf", 7)
	r.Flight("stash-overflow", 150)
	out := sink.String()
	if !strings.Contains(out, "stash-overflow") || !strings.Contains(out, `"bg-evict"`) {
		t.Fatalf("flight dump missing content:\n%s", out)
	}
	// Every non-header line is itself a JSON object.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var v map[string]interface{}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("flight line %q not JSON: %v", line, err)
		}
	}
}

func TestSamplerTicks(t *testing.T) {
	r := New(Options{SampleEvery: 100})
	s := r.Series("x")
	n := 0
	r.OnSample(func(cycle uint64) { n++; s.Record(cycle, float64(n)) })
	r.MaybeSample(0)   // tick at 0
	r.MaybeSample(50)  // no tick
	r.MaybeSample(250) // ticks at 100 and 200
	if n != 3 {
		t.Fatalf("got %d ticks, want 3", n)
	}
	if s.cycles[0] != 0 || s.cycles[1] != 100 || s.cycles[2] != 200 {
		t.Fatalf("tick cycles %v", s.cycles)
	}
}

func TestBeginProcessScopesCallbacksAndPids(t *testing.T) {
	var tr bytes.Buffer
	r := New(Options{SampleEvery: 10, TraceOut: &tr})
	if pid := r.BeginProcess("first"); pid != 1 {
		t.Fatalf("first process pid %d", pid)
	}
	s1 := r.Series("occ")
	r.OnSample(func(cycle uint64) { s1.Record(cycle, 1) })
	r.MaybeSample(25) // ticks 0,10,20 for process 1

	if pid := r.BeginProcess("second"); pid != 2 {
		t.Fatalf("second process pid %d", pid)
	}
	s2 := r.Series("occ")
	r.OnSample(func(cycle uint64) { s2.Record(cycle, 2) })
	r.MaybeSample(5) // tick 0 for process 2 only

	if s1.Len() != 3 {
		t.Fatalf("process 1 series extended after its run: %d points", s1.Len())
	}
	if s2.Len() != 1 {
		t.Fatalf("process 2 series has %d points", s2.Len())
	}
	// Metrics registered by a later process are namespaced by pid.
	if got := r.Counter("c", nil); got != r.reg.Counter("p2.c", nil) {
		t.Fatal("second-process counter not namespaced with its pid")
	}
	if err := r.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), `"process_name"`) {
		t.Fatal("no process metadata emitted")
	}
}

// exportedValues parses a metrics dump into name -> value for its counters
// and gauges.
func exportedValues(t *testing.T, r *Recorder) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters, Gauges []struct {
			Name  string
			Value float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range append(dump.Counters, dump.Gauges...) {
		out[m.Name] = m.Value
	}
	return out
}

// TestViewsAreReadAtExport: a counter or view gauge holds no value of its
// own — every WriteMetrics reports what the source says at that moment.
func TestViewsAreReadAtExport(t *testing.T) {
	r := New(Options{})
	var paths uint64
	highWater := 2
	r.Counter("paths", func() uint64 { return paths })
	r.GaugeView("high_water", func() float64 { return float64(highWater) })
	for _, want := range []uint64{0, 7, 7, 100} {
		paths = want
		highWater = int(want) + 2
		got := exportedValues(t, r)
		if got["paths"] != float64(want) || got["high_water"] != float64(want+2) {
			t.Fatalf("source at %d, export says paths=%v high_water=%v", want, got["paths"], got["high_water"])
		}
	}
}

// TestBeginProcessFreezesViews: starting the next process reads the
// previous one's views for the last time. Its source may then change (or be
// collected) without the export moving, and the next process's views under
// the same names are separate metrics.
func TestBeginProcessFreezesViews(t *testing.T) {
	r := New(Options{})
	r.BeginProcess("first")
	first, firstHW := uint64(0), 0.0
	c := r.Counter("paths", func() uint64 { return first })
	g := r.GaugeView("high_water", func() float64 { return firstHW })
	ev := r.Gauge("queue_depth")
	first, firstHW = 41, 9
	ev.Max(3)

	r.BeginProcess("second")
	if c.read != nil || g.read != nil {
		t.Fatal("BeginProcess kept the finished process's readers")
	}
	first, firstHW = 1000, 1000 // the finished system moves on; the export must not
	second := uint64(5)
	r.Counter("paths", func() uint64 { return second })
	second = 6

	got := exportedValues(t, r)
	for name, want := range map[string]float64{"paths": 41, "high_water": 9, "queue_depth": 3, "p2.paths": 6} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v (export: %v)", name, got[name], want, got)
		}
	}
	if c.Value() != 41 || g.Value() != 9 {
		t.Errorf("frozen handles read %d and %v, want 41 and 9", c.Value(), g.Value())
	}
}

// TestHistogramQuantiles pins the integer interpolation: the midpoint of
// the rank's slice of its bin, the bin's top clamped to the maximum.
func TestHistogramQuantiles(t *testing.T) {
	var reg Registry
	h := reg.Histogram("h")
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// p50 is rank 500, the 245th of bin 9's 256 values in [256, 511];
	// p99, p999 and the last rank are ranks 990, 999 and 1000 among bin
	// 10's 489 in [512, 1000]: a slice's midpoint, never the maximum.
	for _, tc := range []struct{ num, den, want uint64 }{
		{50, 100, 499}, {99, 100, 989}, {999, 1000, 998}, {1, 1, 999}, {1, 1000, 1},
	} {
		if got := h.Quantile(tc.num, tc.den); got != tc.want {
			t.Errorf("Quantile(%d, %d) = %d, want %d", tc.num, tc.den, got, tc.want)
		}
	}
	if h.n != 1000 || h.max != 1000 {
		t.Errorf("count %d max %d", h.n, h.max)
	}
	var empty Histogram
	if empty.Quantile(50, 100) != 0 {
		t.Error("empty histogram has a median")
	}
	var one Histogram
	one.Observe(42)
	if got := one.Quantile(50, 100); got != 37 { // the middle of [32, 42]
		t.Errorf("single-value p50 = %d, want 37", got)
	}
	var none *Histogram
	none.Observe(42)
	if none.Quantile(50, 100) != 0 {
		t.Error("nil histogram has a median")
	}

	// The export is the integer digest.
	var buf bytes.Buffer
	if err := writeMetricsJSON(&buf, &reg, &Sampler{}); err != nil {
		t.Fatal(err)
	}
	var dump struct{ Histograms []json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, dump.Histograms[0]); err != nil {
		t.Fatal(err)
	}
	const want = `{"name":"h","count":1000,"max":1000,"p50":499,"p99":989,"p999":998}`
	if compact.String() != want {
		t.Errorf("export %s, want %s", compact.String(), want)
	}
}
