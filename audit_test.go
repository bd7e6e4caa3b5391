package proram

import (
	"bytes"
	"strings"
	"testing"

	"proram/internal/obs/audit"
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

// failRoundShape makes an armed auditor see one demand round a slot
// short, as a scheduler that drops its padding would show it. Called on a
// ShardedRAM's auditor after NewSharded and before the first request, it
// runs while the round driver is idle, so the feed stays on one goroutine
// at a time.
func failRoundShape(a *audit.Auditor) {
	a.RoundShape(0, 0, audit.ShapeDemand, 1)
}

// TestShardedAuditLeakFailsClose asserts the public failure path of a
// round-shape violation: Close returns the audit error, the report names
// the round-shape test, and the first online failure dumps the
// observability flight ring. A real leak of that shape (the demand pad
// loop's dummy accesses dropped) is one of CI's audit plants.
func TestShardedAuditLeakFailsClose(t *testing.T) {
	var flight bytes.Buffer
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 4
	s, err := NewSharded(cfg, ShardedOptions{
		Audit: &AuditConfig{},
		Obs:   &ObsConfig{FlightOut: &flight},
	})
	if err != nil {
		t.Fatal(err)
	}
	failRoundShape(s.out.aud)
	for i := uint64(0); i < 100; i++ {
		if err := s.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Close()
	if err == nil {
		t.Fatal("Close succeeded on a failed audit")
	}
	if !strings.Contains(err.Error(), "audit failed") {
		t.Fatalf("Close error is not the audit verdict: %v", err)
	}
	rep := s.Audit()
	if rep == nil || rep.Pass {
		t.Fatalf("failed audit passed: %+v", rep)
	}
	if !strings.Contains(strings.Join(rep.Findings, "\n"), "round_shape") {
		t.Fatalf("findings missing round_shape: %v", rep.Findings)
	}
	if !strings.Contains(flight.String(), "audit failure") {
		t.Fatalf("flight ring not dumped on audit failure: %.200s", flight.String())
	}
}

// TestSimulateShardedAudited covers the one-shot audited simulation on
// both verdicts: an honest run passes with a digest, and a failed audit
// fails the digest without an operational error. The failing half drives
// the options' lowering and finish, the pair SimulateSharded returns
// through; a real leaf bias on a sharded run is one of CI's audit plants.
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

	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	scfg := norm.shardConfig()
	out := ShardedOptions{Audit: &AuditConfig{}}.lower(&scfg)
	if err := out.aud.Bind(cfg.Partitions, 1<<10, 2); err != nil {
		t.Fatal(err)
	}
	failRoundShape(out.aud)
	failed, err := out.finish()
	if err != nil {
		t.Fatalf("failed audit has operational error: %v", err)
	}
	if failed == nil || failed.Pass {
		t.Fatalf("failed audit passed: %+v", failed)
	}
	if !strings.Contains(strings.Join(failed.Findings, "\n"), "round_shape") {
		t.Fatalf("findings missing round_shape: %v", failed.Findings)
	}
	if err := failed.Err(); err == nil {
		t.Fatal("failing report has nil Err")
	}
}

// TestSimulatorAudit covers the unified facade: an honest dynamic-scheme
// run passes, and DRAM is rejected at construction. A leaf bias on the
// unified controller is one of CI's audit plants.
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
}
