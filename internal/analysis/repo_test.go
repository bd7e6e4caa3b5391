package analysis

import "testing"

// TestRepositoryIsVetClean is the driver test the CI job mirrors: every
// default pass over every module package must report nothing. A failure
// here means a change introduced nondeterminism, an unjustified panic,
// a data-dependent branch or index, or a stale or malformed directive —
// fix the code or add a justified //proram: directive, never weaken the
// pass. Allocation-freedom of the access path is not a vet property: the
// AllocsPerRun tests beside the code it covers measure it.
func TestRepositoryIsVetClean(t *testing.T) {
	prog := program(t)
	diags := NewRunner(prog).Run(DefaultPasses(), prog.ModulePackages())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); run `go run ./cmd/proram-vet ./...` locally", len(diags))
	}
}

// TestConcurrencyAnnotationSweep pins the concurrency annotations of
// the sharded frontend: the round-barrier receive in Frontend.collect
// keeps its verified //proram:detround justification (the
// concdeterminism pass checks the reachability claim; this test makes
// deleting the directive loud), detround never spreads outside
// internal/shard where the round-barrier argument holds, and every
// concdeterminism suppression carries a reason.
func TestConcurrencyAnnotationSweep(t *testing.T) {
	prog := program(t)
	detrounds := 0
	for _, pkg := range prog.ModulePackages() {
		for _, d := range pkg.Directives {
			switch d.Kind {
			case "detround":
				detrounds++
				if pkg.Rel != "internal/shard" {
					t.Errorf("%s:%d: //proram:detround outside internal/shard; the round-barrier argument only holds there", d.File, d.Line)
				}
				if d.Reason == "" {
					t.Errorf("%s:%d: //proram:detround without a reason", d.File, d.Line)
				}
			case "allow":
				for _, c := range d.Checks {
					if c == "concdeterminism" && d.Reason == "" {
						t.Errorf("%s:%d: //proram:allow %s without a reason", d.File, d.Line, c)
					}
				}
			}
		}
	}
	if detrounds == 0 {
		t.Error("internal/shard has no //proram:detround directives; the round-barrier receive in Frontend.collect must stay justified")
	}
}
