package shard

import (
	"bytes"
	"fmt"
	"testing"

	"proram/internal/obs"
	"proram/internal/obs/audit"
)

// TestReplayByteIdentityWithAudit asserts that tapping the auditor (and
// the observability recorder) does not perturb the access pattern: a
// fully instrumented live run, a plain replay, and an audited replay of
// the same arrival log must produce byte-identical access logs at the
// degenerate and non-power-of-two partition counts. The auditor must
// also clear the honest runs.
func TestReplayByteIdentityWithAudit(t *testing.T) {
	for _, parts := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			cfg := testConfig(parts)
			cfg.Recorder = obs.New(obs.Options{})
			liveAud := audit.New(audit.Config{Timing: true})
			cfg.Audit = liveAud
			arrivals, liveLog := runLive(t, cfg, 4, 20)
			if rep := liveAud.Report(); !rep.Pass {
				t.Fatalf("honest instrumented live run flagged: %v", rep.Findings)
			}

			plain := cfg
			plain.Recorder = nil
			plain.Audit = nil
			logPlain, _, err := Replay(plain, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			audited := cfg
			replayAud := audit.New(audit.Config{Timing: true})
			audited.Audit = replayAud
			logAudited, _, err := Replay(audited, arrivals)
			if err != nil {
				t.Fatal(err)
			}

			lb, pb, ab := liveLog.Bytes(), logPlain.Bytes(), logAudited.Bytes()
			if !bytes.Equal(lb, pb) {
				t.Fatalf("audited live run and plain replay diverge at %d partitions: %d vs %d bytes",
					parts, len(lb), len(pb))
			}
			if !bytes.Equal(pb, ab) {
				t.Fatalf("plain and audited replays diverge at %d partitions: %d vs %d bytes",
					parts, len(pb), len(ab))
			}
			if rep := replayAud.Report(); !rep.Pass {
				t.Fatalf("honest audited replay flagged: %v", rep.Findings)
			}
		})
	}
}

// TestAuditTimesPadSlotWritebacks asserts the timing test still compares
// padding with demand slots when a partition issues no dummy at all: a
// write burst keeps every round's first slot on a miss and its second on a
// queued victim's write-back. Those write-backs are the padding
// population, and the round's end times them although they close it.
func TestAuditTimesPadSlotWritebacks(t *testing.T) {
	cfg := testConfig(1)
	aud := audit.New(audit.Config{Timing: true, MinSamples: 256})
	cfg.Audit = aud
	arrivals := make([]Arrival, 200)
	for i := range arrivals {
		arrivals[i] = Arrival{Seq: uint64(i), Index: uint64(i), Write: true}
	}
	_, st, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if st.DummyAccesses != 0 || st.PadWritebacks == 0 {
		t.Fatalf("want a dummy-free run that drains in pad slots: %d dummies, %d pad write-backs",
			st.DummyAccesses, st.PadWritebacks)
	}
	rep := aud.Report()
	if !rep.Pass {
		t.Fatalf("honest run flagged: %v", rep.Findings)
	}
	for _, tr := range rep.Tests {
		if tr.Name == "timing_indistinguishability" && tr.Status != "pass" {
			t.Fatalf("timing test %s over %d gaps, want pass", tr.Status, tr.N)
		}
	}
}
