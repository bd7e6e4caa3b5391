package proram

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestShardedAuditPass runs an honest ShardedRAM with the auditor armed
// end to end through the public API: Close must succeed, the verdict
// must pass, and the JSON report must land in the configured writer.
func TestShardedAuditPass(t *testing.T) {
	var out bytes.Buffer
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 4
	s, err := NewSharded(cfg, ShardedOptions{Audit: &AuditConfig{Out: &out}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := s.Write(i%97, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(i % 53); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("honest audited Close: %v", err)
	}
	rep := s.Audit()
	if rep == nil || !rep.Pass {
		t.Fatalf("honest run flagged: %+v", rep)
	}
	if rep.Accesses == 0 {
		t.Fatal("audit saw no accesses")
	}
	if !strings.Contains(out.String(), `"pass": true`) {
		t.Fatalf("report JSON missing passing verdict: %.200s", out.String())
	}
}

// TestShardedAuditLeakFailsClose asserts the public failure path of the
// suppressed-padding negative control: Close returns the audit error,
// the report names the round-shape test, and the first online failure
// dumps the observability flight ring.
func TestShardedAuditLeakFailsClose(t *testing.T) {
	var flight bytes.Buffer
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 4
	s, err := NewSharded(cfg, ShardedOptions{
		Audit: &AuditConfig{Leak: LeakDropDummies},
		Obs:   &ObsConfig{FlightOut: &flight},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := s.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Close()
	if err == nil {
		t.Fatal("Close succeeded on a leaky run")
	}
	if !strings.Contains(err.Error(), "audit failed") {
		t.Fatalf("Close error is not the audit verdict: %v", err)
	}
	rep := s.Audit()
	if rep == nil || rep.Pass {
		t.Fatalf("leaky run passed: %+v", rep)
	}
	if !strings.Contains(strings.Join(rep.Findings, "\n"), "round_shape") {
		t.Fatalf("findings missing round_shape: %v", rep.Findings)
	}
	if !strings.Contains(flight.String(), "audit failure") {
		t.Fatalf("flight ring not dumped on audit failure: %.200s", flight.String())
	}
}

// TestSimulateShardedAudited covers the one-shot audited simulation on
// both verdicts: honest passes with a digest, bias-leaf fails the
// verdict without an operational error.
func TestSimulateShardedAudited(t *testing.T) {
	w := YCSBWorkload(5000)
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 4
	cfg.Scheme = SchemeDynamic

	rep, err := SimulateSharded(cfg, w, 8, ShardedOptions{Audit: &AuditConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 5000 || rep.PathAccesses == 0 {
		t.Fatalf("empty digest: %+v", rep)
	}
	aud := rep.Audit
	if aud == nil || !aud.Pass {
		t.Fatalf("honest run flagged: %+v", aud)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("passing report has error: %v", err)
	}

	rep, err = SimulateSharded(cfg, w, 8, ShardedOptions{Audit: &AuditConfig{Leak: LeakBiasLeaf}})
	if err != nil {
		t.Fatalf("leaky run has operational error: %v", err)
	}
	leaky := rep.Audit
	if leaky == nil || leaky.Pass {
		t.Fatalf("bias-leaf run passed: %+v", leaky)
	}
	if !strings.Contains(strings.Join(leaky.Findings, "\n"), "leaf_uniformity") {
		t.Fatalf("findings missing leaf_uniformity: %v", leaky.Findings)
	}
	if err := leaky.Err(); err == nil {
		t.Fatal("failing report has nil Err")
	}
}

// TestSimulatorAudit covers the unified facade: an honest dynamic-scheme
// run passes, the DRAM and drop-dummies combinations are rejected at
// construction, and the bias-leaf control is flagged.
func TestSimulatorAudit(t *testing.T) {
	w := YCSBWorkload(2000)
	s, err := NewSimulator(SimConfig{Memory: MemoryORAM, Scheme: SchemeDynamic, Audit: &AuditConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil || !res.Audit.Pass {
		t.Fatalf("honest unified run flagged: %+v", res.Audit)
	}

	if _, err := NewSimulator(SimConfig{Memory: MemoryDRAM, Audit: &AuditConfig{}}); err == nil {
		t.Fatal("DRAM + audit accepted")
	}
	if _, err := NewSimulator(SimConfig{Memory: MemoryORAM, Audit: &AuditConfig{Leak: LeakDropDummies}}); err == nil {
		t.Fatal("unified drop-dummies accepted")
	}

	leaky, err := NewSimulator(SimConfig{Memory: MemoryORAM, Scheme: SchemeDynamic, Audit: &AuditConfig{Leak: LeakBiasLeaf}})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := leaky.Run(YCSBWorkload(300))
	if err != nil {
		t.Fatal(err)
	}
	if lres.Audit == nil || lres.Audit.Pass {
		t.Fatalf("unified bias-leaf run passed: %+v", lres.Audit)
	}
	if !strings.Contains(fmt.Sprint(lres.Audit.Findings), "leaf_uniformity") {
		t.Fatalf("findings missing leaf_uniformity: %v", lres.Audit.Findings)
	}
}
