package analysis

import "testing"

// TestRepositoryIsVetClean is the driver test the CI job mirrors: every
// default pass over every module package must report nothing. A failure
// here means a change introduced nondeterminism, an unjustified panic, or
// a stale or malformed directive — fix the code or add a justified
// //proram: directive, never weaken the pass. Allocation-freedom of the
// access path and payload independence are not vet properties: the
// AllocsPerRun tests and the payload-independence tests beside the code
// they cover measure them.
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
