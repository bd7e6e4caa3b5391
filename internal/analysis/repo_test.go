package analysis

import "testing"

// TestRepositoryIsVetClean is the driver test the CI job mirrors: every
// default pass over every module package must report nothing. A failure
// here means a change introduced nondeterminism, an unjustified panic, a
// data-dependent branch or index, or an allocation on the hot path —
// fix the code or add a justified //proram: directive, never weaken the
// pass.
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

// TestHotPathAnnotationSweep pins the //proram:hotpath coverage of the
// real ORAM access path: the controller's path access, the stash scan,
// the PLB lookup, the position-map walk, the prefetch counter update and
// the DRAM enqueue must all stay marked, so the allocdiscipline pass
// (kept green by TestRepositoryIsVetClean) keeps guarding them. Dropping
// a directive silently un-guards that function; this test makes the drop
// loud.
func TestHotPathAnnotationSweep(t *testing.T) {
	prog := program(t)
	perPkg := make(map[string]int)
	total := 0
	for _, pkg := range prog.ModulePackages() {
		for _, d := range pkg.Directives {
			if d.Kind == "hotpath" {
				perPkg[pkg.Rel]++
				total++
				if d.Reason == "" {
					t.Errorf("%s:%d: //proram:hotpath without a reason", d.File, d.Line)
				}
			}
		}
	}
	for _, rel := range []string{
		"internal/oram",
		"internal/stash",
		"internal/posmap",
		"internal/tree",
		"internal/prefetch",
		"internal/superblock",
		"internal/dram",
		"internal/dram/banked",
		"internal/shard",
	} {
		if perPkg[rel] == 0 {
			t.Errorf("package %s has no //proram:hotpath functions; the access path through it is unguarded", rel)
		}
	}
	if total < 25 {
		t.Errorf("only %d //proram:hotpath directives module-wide; the access-path sweep marked 35+", total)
	}
}
