package proram

import (
	"fmt"
	"io"

	"proram/internal/obs"
	"proram/internal/obs/audit"
)

// LeakMode selects a test-only negative control: a deliberately broken
// scheduler or controller the obliviousness auditor must flag. The modes
// exist so CI can prove the audit has statistical power; production code
// never sets one.
type LeakMode int

const (
	// LeakNone is the honest system.
	LeakNone LeakMode = iota
	// LeakDropDummies makes the sharded scheduler claim its round padding
	// without issuing it (sharded frontends only).
	LeakDropDummies
	// LeakBiasLeaf makes the ORAM controllers draw remap leaves from only
	// the lower half of the leaf space.
	LeakBiasLeaf
)

func (m LeakMode) internal() audit.Leak {
	switch m {
	case LeakDropDummies:
		return audit.LeakDropDummies
	case LeakBiasLeaf:
		return audit.LeakBiasLeaf
	}
	return audit.LeakNone
}

// AuditConfig arms the live obliviousness auditor: deterministic
// statistical tests (leaf uniformity, serial independence, round shape,
// flush equality, real-vs-dummy timing) over the wire-observable access
// stream, plus end-to-end latency spans with streaming tail quantiles.
// All statistics are integer/fixed-point, so the report is byte-stable
// across runs and platforms.
type AuditConfig struct {
	// Out receives the full JSON report when the audited run finishes
	// (ShardedRAM.Close, SimulateSharded, or Simulator.Run); nil
	// keeps the report in memory only.
	Out io.Writer
	// CheckEvery is the online evaluation interval in observed accesses
	// (0 = 16384). The first mid-run failure latches and dumps the obs
	// flight ring.
	CheckEvery uint64
	// MinSamples gates each test: scopes with fewer observations report
	// "skip" (0 = 1024).
	MinSamples uint64
	// Leak arms a negative control the auditor must flag. Test-only: it
	// deliberately breaks the obliviousness the rest of the system
	// guarantees.
	Leak LeakMode
}

// AuditReport is the public digest of an audit: the verdict, the stream
// size it rests on, and one human-readable finding per failed test.
type AuditReport struct {
	// Pass is the overall verdict.
	Pass bool
	// Accesses is the number of physical accesses audited.
	Accesses uint64
	// Findings describes every failed test; empty when Pass.
	Findings []string
}

// auditor builds the internal auditor for an armed configuration. The
// recorder, when non-nil, is the one the audited system emits into — the
// auditor dumps its flight ring on the first online failure. Callers arm
// timing only for flat-latency devices: the banked DRAM models per-access
// variance on purpose, and the frontend's timing claim there is at the
// round barrier (covered by the shape tests), not per access.
func (c *AuditConfig) auditor(timing bool, rec *obs.Recorder) *audit.Auditor {
	if c == nil {
		return nil
	}
	return audit.New(audit.Config{
		Timing:     timing,
		CheckEvery: c.CheckEvery,
		MinSamples: c.MinSamples,
		Recorder:   rec,
	})
}

// Err returns nil for a passing (or absent) report and a descriptive
// error for a failing one, so callers can turn the verdict into an exit
// path.
func (r *AuditReport) Err() error {
	if r == nil || r.Pass {
		return nil
	}
	detail := "no findings recorded"
	if len(r.Findings) > 0 {
		detail = r.Findings[0]
	}
	return fmt.Errorf("proram: obliviousness audit failed: %s", detail)
}

// finishAudit renders the internal report into the public digest, writing
// the JSON artifact when requested. The returned error reports only write
// failures; the verdict itself travels in the digest (see AuditReport.Err).
func finishAudit(a *audit.Auditor, out io.Writer) (*AuditReport, error) {
	if a == nil {
		return nil, nil
	}
	rep := a.Report()
	pub := &AuditReport{Pass: rep.Pass, Accesses: rep.Accesses, Findings: rep.Findings}
	if out != nil {
		if err := rep.WriteJSON(out); err != nil {
			return pub, err
		}
	}
	return pub, nil
}
