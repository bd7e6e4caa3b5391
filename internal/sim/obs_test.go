package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"proram/internal/obs"
	"proram/internal/superblock"
)

// observedRun executes one seeded ORAM system followed by one DRAM system
// on a shared recorder and returns the metrics and trace dumps.
func observedRun(t *testing.T, seed uint64) (metrics, trace string) {
	t.Helper()
	var traceBuf, flight bytes.Buffer
	rec := obs.New(obs.Options{
		SampleEvery: 100_000,
		TraceOut:    &traceBuf,
		FlightOut:   &flight,
	})

	ocfg := DefaultConfig(TechORAM)
	smallORAM(&ocfg)
	ocfg.ORAM.Super = superblock.DefaultConfig()
	ocfg.ORAM.Seed = seed
	ocfg.Obs = rec
	ocfg.ObsLabel = "oram-under-test"
	run(t, ocfg, synth(8000, 0.8, seed))

	dcfg := DefaultConfig(TechDRAM)
	dcfg.Obs = rec
	run(t, dcfg, synth(8000, 0.8, seed))

	if err := rec.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	if err := rec.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	return m.String(), traceBuf.String()
}

// TestObservedRunDeterministic is the end-to-end reproducibility check:
// the same seeded simulation run twice produces byte-identical metrics
// JSON and trace output.
func TestObservedRunDeterministic(t *testing.T) {
	m1, t1 := observedRun(t, 42)
	m2, t2 := observedRun(t, 42)
	if m1 != m2 {
		t.Error("metrics dumps differ between identical seeded runs")
	}
	if t1 != t2 {
		t.Error("trace dumps differ between identical seeded runs")
	}

	// The trace must be a well-formed JSON array of events with the fields
	// the Chrome trace-event viewers require.
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(t1), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	sawSpan, sawMeta := false, false
	for _, e := range events {
		ph, _ := e["ph"].(string)
		switch ph {
		case "X":
			sawSpan = true
		case "M":
			sawMeta = true
		case "":
			t.Fatalf("event without phase: %v", e)
		}
	}
	if !sawSpan {
		t.Error("no path-access spans in trace")
	}
	if !sawMeta {
		t.Error("no process metadata in trace")
	}

	// The metrics dump must cover both systems: the ORAM controller's
	// counters under the first pid and the DRAM model's under the second.
	var dump struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
		Series []struct {
			Pid    int       `json:"pid"`
			Name   string    `json:"name"`
			Cycles []uint64  `json:"cycles"`
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(m1), &dump); err != nil {
		t.Fatalf("metrics dump not valid JSON: %v", err)
	}
	find := func(name string) uint64 {
		for _, c := range dump.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %q missing from metrics dump", name)
		return 0
	}
	if find("oram.path_accesses") == 0 {
		t.Error("no path accesses counted")
	}
	if find("p2.dram.accesses") == 0 {
		t.Error("second system's DRAM accesses not counted under its pid")
	}
	pids := map[int]bool{}
	for _, s := range dump.Series {
		pids[s.Pid] = true
		if len(s.Cycles) != len(s.Values) {
			t.Fatalf("series %q has mismatched cycle/value lengths", s.Name)
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("expected series from both processes, got pids %v", pids)
	}
	if !strings.Contains(t1, "oram-under-test") {
		t.Error("process label missing from trace")
	}
}
