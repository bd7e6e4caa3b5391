package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The module (plus every fixture under testdata/src) is loaded and
// type-checked once and shared by all tests: source-resolving the
// standard library is the expensive part and is identical for every
// pass.
var (
	loadOnce sync.Once
	loadProg *Program
	loadErr  error
)

func program(t *testing.T) *Program {
	t.Helper()
	loadOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loadErr = err
			return
		}
		fixtures, err := filepath.Glob(filepath.Join(root, "internal", "analysis", "testdata", "src", "*"))
		if err != nil {
			loadErr = err
			return
		}
		loadProg, loadErr = Load(root, fixtures...)
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadProg
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the test working directory")
		}
		dir = parent
	}
}

// expectation is one parsed want comment: the diagnostic the fixture
// demands at that file and line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRx extracts `want` patterns from fixture source lines. The pattern
// is backquoted so it can contain double quotes from %q-formatted
// messages.
var wantRx = regexp.MustCompile("want `([^`]+)`")

func parseExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(pkg.Dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				out = append(out, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return out
}

// runFixture applies passes to the fixture package at rel and checks the
// produced diagnostics against the fixture's want comments, both ways:
// every diagnostic must be expected, every expectation must fire.
func runFixture(t *testing.T, passes []*Pass, rel string) {
	t.Helper()
	prog := program(t)
	pkg := prog.PackageAt(rel)
	if pkg == nil {
		t.Fatalf("fixture package %s not loaded", rel)
	}
	diags := NewRunner(prog).Run(passes, []*Package{pkg})
	wants := parseExpectations(t, pkg)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

const fixtureBase = "internal/analysis/testdata/src/"

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, []*Pass{Determinism()}, fixtureBase+"determinism")
}

func TestPanicDisciplineFixture(t *testing.T) {
	runFixture(t, []*Pass{PanicDiscipline()}, fixtureBase+"panicdiscipline")
}

// The hygiene fixture runs under every default pass so named checks count
// as executed (stale detection is gated on that) and so used suppressions
// are consumed by the pass they name.
func TestAllowHygieneFixture(t *testing.T) {
	runFixture(t, DefaultPasses(), fixtureBase+"allowhygiene")
}

func TestSelectPasses(t *testing.T) {
	// branchless, seedplumbing and oblivious are retired passes: naming
	// one is an unknown check, not a silent no-op.
	for _, checks := range []string{"determinism,nosuch", "branchless", "seedplumbing", "oblivious"} {
		if _, err := SelectPasses(checks); err == nil || !strings.Contains(err.Error(), "unknown check") {
			t.Fatalf("SelectPasses(%q) = %v, want an unknown-check error", checks, err)
		}
	}
	if _, err := SelectPasses("determinism,panicdiscipline,determinism"); err == nil {
		t.Fatal("duplicate check did not error")
	}
	ps, err := SelectPasses("panicdiscipline, determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Name != "panicdiscipline" || ps[1].Name != "determinism" {
		t.Fatalf("SelectPasses returned %v", ps)
	}
	all, err := SelectPasses("")
	if err != nil || len(all) != len(DefaultPasses()) {
		t.Fatalf("empty selection: %v, %d passes", err, len(all))
	}
	if _, err := SelectPasses("nosuch"); err == nil || !strings.Contains(err.Error(), strings.Join(PassNames(), ", ")) {
		t.Fatalf("unknown-check error should list PassNames(), got: %v", err)
	}
}

func TestDirectiveParsingOnFixture(t *testing.T) {
	prog := program(t)
	pkg := prog.PackageAt(fixtureBase + "allowhygiene")
	if pkg == nil {
		t.Fatal("allowhygiene fixture not loaded")
	}
	kinds := make(map[string]int)
	for _, d := range pkg.Directives {
		kinds[d.Kind]++
	}
	if kinds["allow"] < 3 || kinds["invariant"] < 2 || kinds["frobnicate"] != 1 {
		t.Fatalf("directive census off: %v", kinds)
	}
}
