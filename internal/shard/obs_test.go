package shard

import (
	"bytes"
	"encoding/json"
	"testing"

	"proram/internal/obs"
	"proram/internal/rng"
)

// TestLatencySpansWithoutTrace arms only the recorder on a flat device, so
// no partition records its trace, and asks for every latency histogram:
// one DRAM residency per (round, partition) like the service time, one end
// to end per request. Recording the accesses as well must not move a byte
// of the metrics dump.
func TestLatencySpansWithoutTrace(t *testing.T) {
	const reads = 2000
	run := func(record bool) []byte {
		cfg := testConfig(2)
		rec := obs.New(obs.Options{})
		cfg.Recorder = rec
		cfg.RecordAccesses = record
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if f.parts[0].record != record {
			t.Fatalf("partition records its trace: %v, want %v", f.parts[0].record, record)
		}
		r := rng.New(3)
		for i := 0; i < reads; i++ {
			if _, err := f.Read(r.Uint64n(cfg.Blocks)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dump := run(false)
	var m struct {
		Histograms []struct {
			Name       string
			Count, Max uint64
		}
	}
	if err := json.Unmarshal(dump, &m); err != nil {
		t.Fatal(err)
	}
	h := map[string]struct{ count, max uint64 }{}
	for _, x := range m.Histograms {
		h[x.Name] = struct{ count, max uint64 }{x.Count, x.Max}
	}
	// One client: every read is its own round, run on both partitions.
	service, dram := h["shard.latency_service"], h["shard.latency_dram"]
	if service.count != 2*reads || dram.count != service.count {
		t.Errorf("latency_service has %d samples and latency_dram %d, want %d each",
			service.count, dram.count, 2*reads)
	}
	if dram.max > service.max {
		t.Errorf("DRAM residency %d outlasts the service time %d", dram.max, service.max)
	}
	if n := h["shard.latency_e2e"].count; n != reads || h["shard.latency_queue"].count != reads ||
		h["shard.p0.latency_e2e"].count+h["shard.p1.latency_e2e"].count != reads {
		t.Errorf("end-to-end histograms hold %d (all), %d + %d (partitions) and %d queue samples, want %d",
			n, h["shard.p0.latency_e2e"].count, h["shard.p1.latency_e2e"].count, h["shard.latency_queue"].count, reads)
	}
	if !bytes.Equal(dump, run(true)) {
		t.Error("recording the accesses changed the metrics dump")
	}
}
