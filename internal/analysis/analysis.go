// Package analysis is a small, stdlib-only static-analysis framework plus
// the repo-specific passes that enforce PrORAM's two non-negotiable
// conventions:
//
//   - Determinism: every simulation is bit-reproducible from an explicit
//     seed. Wall-clock reads, the global math/rand generator, scheduling
//     races and Go map iteration order must never influence simulator
//     output (DESIGN.md §7).
//
//   - Obliviousness: the ORAM access path must not branch on secret block
//     payload bytes. Path ORAM's guarantee is about *which* paths are
//     touched; a data-dependent branch in the controller would reintroduce
//     exactly the leakage the scheme exists to remove.
//
// The framework is deliberately minimal: it loads and type-checks every
// package of the enclosing module with go/parser and go/types (resolving
// standard-library imports from source, so no external tooling is needed),
// hands each package to a set of passes, and collects file:line
// diagnostics. Suppressions are expressed in the source itself with
// //proram: directives (see doc.go at the repository root for the
// syntax); the allowhygiene pass keeps those directives honest.
//
// To add a new pass, implement a *Pass whose Run inspects one loaded
// Package and reports through Unit.Reportf, then register it in
// DefaultPasses. Suppression, sorting and exit status come for free.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, resolved to a concrete source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string // the pass that produced it
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass is one analyzer. Run is invoked once per analyzed package; the
// optional Finish hook runs after every package has been visited and may
// consult cross-package state accumulated on the Runner (only the
// allowhygiene pass uses it, to flag suppressions that suppressed
// nothing). Name is the pass's only name: -checks, diagnostics and
// //proram:allow all use it.
type Pass struct {
	Name   string
	Doc    string
	Run    func(u *Unit)
	Finish func(r *Runner)
}

// Unit is the context handed to a pass for one package.
type Unit struct {
	Pass *Pass
	Pkg  *Package
	Prog *Program
	r    *Runner
}

// Reportf records a diagnostic at pos unless an in-scope
// //proram:allow directive names this pass. A suppressing directive is
// marked used, which is what keeps it from being reported as stale by the
// allowhygiene pass.
func (u *Unit) Reportf(pos token.Pos, format string, args ...any) {
	p := u.Prog.Fset.Position(pos)
	if d := u.Pkg.allowDirectiveFor(u.Pass.Name, p.Filename, p.Line); d != nil {
		d.used = true
		return
	}
	u.r.diags = append(u.r.diags, Diagnostic{
		Pos:     p,
		Check:   u.Pass.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// PassTiming is the wall-clock cost of one pass across every analyzed
// package (Run calls plus the Finish hook).
type PassTiming struct {
	Name    string
	Elapsed time.Duration
}

// Runner executes passes over packages and collects diagnostics.
type Runner struct {
	prog     *Program
	diags    []Diagnostic
	analyzed []*Package
	executed map[string]bool
	timings  []PassTiming
}

// NewRunner prepares a run over the given program.
func NewRunner(prog *Program) *Runner {
	return &Runner{prog: prog, executed: make(map[string]bool)}
}

// Run applies every pass to every package, then the Finish hooks, and
// returns the findings sorted by position. It may be called once per
// Runner.
func (r *Runner) Run(passes []*Pass, pkgs []*Package) []Diagnostic {
	r.analyzed = pkgs
	elapsed := make([]time.Duration, len(passes))
	for _, p := range passes {
		r.executed[p.Name] = true
	}
	for _, pkg := range pkgs {
		for i, p := range passes {
			if p.Run != nil {
				start := time.Now() //proram:allow determinism timing instruments the analyzer itself, never simulator output
				p.Run(&Unit{Pass: p, Pkg: pkg, Prog: r.prog, r: r})
				elapsed[i] += time.Since(start) //proram:allow determinism timing instruments the analyzer itself, never simulator output
			}
		}
	}
	for i, p := range passes {
		if p.Finish != nil {
			start := time.Now() //proram:allow determinism timing instruments the analyzer itself, never simulator output
			p.Finish(r)
			elapsed[i] += time.Since(start) //proram:allow determinism timing instruments the analyzer itself, never simulator output
		}
	}
	for i, p := range passes {
		r.timings = append(r.timings, PassTiming{Name: p.Name, Elapsed: elapsed[i]})
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return r.diags
}

// Timings returns the per-pass wall-clock cost of the completed Run, in
// pass order.
func (r *Runner) Timings() []PassTiming { return r.timings }

// DefaultPasses returns every pass in its canonical order. The
// allowhygiene pass must come last so its Finish hook sees which
// suppressions the other passes consumed.
func DefaultPasses() []*Pass {
	return []*Pass{
		Determinism(),
		Oblivious(),
		PanicDiscipline(),
		SeedPlumbing(),
		Branchless(),
		AllowHygiene(),
	}
}

// PassNames returns the names of all known passes (the valid arguments to
// //proram:allow).
func PassNames() []string {
	var names []string
	for _, p := range DefaultPasses() {
		names = append(names, p.Name)
	}
	return names
}

// SelectPasses filters DefaultPasses down to the named checks ("" keeps
// everything). Unknown and duplicate names are errors — a duplicated
// check would run twice and double every diagnostic it produces.
func SelectPasses(checks string) ([]*Pass, error) {
	all := DefaultPasses()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*Pass, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	seen := make(map[string]bool)
	var out []*Pass
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q (known: %s)", name, strings.Join(PassNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("analysis: check %q named twice in -checks", name)
		}
		seen[name] = true
		out = append(out, p)
	}
	return out, nil
}
