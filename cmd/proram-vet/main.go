// Command proram-vet runs the repo-specific static-analysis suite: the
// determinism, oblivious, panicdiscipline, seedplumbing, branchless and
// allowhygiene passes of proram/internal/analysis.
//
// Usage:
//
//	go run ./cmd/proram-vet ./...
//	go run ./cmd/proram-vet -checks oblivious,branchless ./internal/shard
//	go run ./cmd/proram-vet -list
//	go run ./cmd/proram-vet -timing -json ./... > vet.json
//
// Every pass has one name (-list prints them): -checks, diagnostics,
// //proram:allow directives and the JSON report all use it. With
// -timing the per-pass wall-clock cost is printed to stderr after the
// run; stdout (including the -json report) is unaffected, so timing
// never perturbs byte-stable artifacts.
//
// It loads and type-checks the whole module (standard library imports
// are resolved from GOROOT source, so no tooling beyond the Go
// distribution is needed) and prints findings as file:line:col: [check]
// message. With -json the findings are emitted as a single JSON report
// on stdout instead — module-relative forward-slash paths and
// runner-sorted findings, so two runs over the same tree produce
// byte-identical output fit for CI artifact diffing. Suppressions are
// //proram: directives in the source; see doc.go at the repository
// root.
//
// Exit status distinguishes findings from breakage, so CI can react to
// each differently:
//
//	0  the analyzed packages are clean
//	1  at least one finding was reported
//	2  the analyzer itself failed (bad flags, unreadable module,
//	   type-check errors) — the run says nothing about the code
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"proram/internal/analysis"
)

// jsonFinding is one diagnostic in the -json report. File is
// module-relative with forward slashes on every platform.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// jsonReport is the envelope the -json mode writes to stdout.
type jsonReport struct {
	Module   string        `json:"module"`
	Checks   []string      `json:"checks"`
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := flag.Bool("list", false, "list registered passes with their descriptions and exit")
	jsonFlag := flag.Bool("json", false, "emit a byte-stable JSON report on stdout instead of file:line:col lines")
	timingFlag := flag.Bool("timing", false, "print per-pass wall-clock timing to stderr after the run")
	flag.Parse()

	if *listFlag {
		for _, p := range analysis.DefaultPasses() {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return
	}

	passes, err := analysis.SelectPasses(*checks)
	if err != nil {
		fatal(err)
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	extra, err := fixtureDirs(root, flag.Args())
	if err != nil {
		fatal(err)
	}
	prog, err := analysis.Load(root, extra...)
	if err != nil {
		fatal(err)
	}
	pkgs, err := selectPackages(prog, root, flag.Args())
	if err != nil {
		fatal(err)
	}

	runner := analysis.NewRunner(prog)
	diags := runner.Run(passes, pkgs)
	if *timingFlag {
		for _, t := range runner.Timings() {
			fmt.Fprintf(os.Stderr, "proram-vet: timing %-20s %s\n", t.Name, t.Elapsed.Round(10*time.Microsecond))
		}
	}
	if *jsonFlag {
		if err := writeJSON(os.Stdout, prog, passes, root, diags); err != nil {
			fatal(err)
		}
	} else {
		cwd, _ := os.Getwd()
		for _, d := range diags {
			name := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			fmt.Printf("%s:%d:%d: [%s] %s\n", name, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "proram-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeJSON renders the report. The diagnostics arrive runner-sorted
// (file, line, col, check) and paths are normalized to module-relative
// forward-slash form, so the bytes are identical across runs and
// platforms — CI uploads the report as an artifact and any change shows
// up as a diff.
func writeJSON(w *os.File, prog *analysis.Program, passes []*analysis.Pass, root string, diags []analysis.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		findings = append(findings, jsonFinding{
			File:    name,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(jsonReport{
		Module:   prog.ModulePath,
		Checks:   names,
		Count:    len(findings),
		Findings: findings,
	})
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
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
			return "", fmt.Errorf("proram-vet: no go.mod found above the working directory")
		}
		dir = parent
	}
}

// fixtureDirs collects directories for patterns that point under a
// testdata tree. The module walk skips testdata on purpose, so analyzing
// the golden fixtures (e.g. to see the expected findings fire and the
// driver exit nonzero) requires loading those directories explicitly.
func fixtureDirs(root string, patterns []string) ([]string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pat := range patterns {
		recursive := strings.HasSuffix(pat, "/...")
		abs := filepath.Join(cwd, strings.TrimSuffix(pat, "/..."))
		rel, err := filepath.Rel(root, abs)
		if err != nil || !strings.Contains(filepath.ToSlash(rel), "testdata") {
			continue
		}
		if !recursive {
			out = append(out, abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				out = append(out, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selectPackages resolves command-line patterns ("./...", "./internal/oram",
// "./internal/...") against the loaded packages. No patterns means every
// module package; testdata packages participate only when a pattern names
// them (they are never loaded otherwise).
func selectPackages(prog *analysis.Program, root string, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return prog.ModulePackages(), nil
	}
	all := prog.Packages
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var out []*analysis.Package
	seen := make(map[*analysis.Package]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		abs := filepath.Join(cwd, pat)
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("proram-vet: pattern %q points outside the module", pat)
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		matched := false
		for _, pkg := range all {
			ok := pkg.Rel == rel || (recursive && (rel == "" || strings.HasPrefix(pkg.Rel, rel+"/")))
			if ok && !seen[pkg] {
				seen[pkg] = true
				out = append(out, pkg)
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("proram-vet: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// fatal reports an internal analyzer failure. Exit status 2 keeps it
// distinguishable from "findings were reported" (status 1): CI must
// fail on breakage but may merely surface findings.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
