package analysis

import "strings"

// AllowHygiene keeps the //proram: directive vocabulary honest: unknown
// directive kinds, allow directives naming unknown checks, empty
// suppression lists and justification-free invariants are all flagged.
// Its Finish hook runs after every other pass and reports allow
// directives that suppressed nothing — stale suppressions are how real
// findings sneak back in unnoticed. (A directive is only reported stale
// when every check it names actually executed this run, so partial
// -checks invocations never produce false alarms.)
func AllowHygiene() *Pass {
	known := map[string]bool{"allow": true, "invariant": true, "public": true, "secret": true, "hotpath": true, "detround": true, "fixedtrip": true, "branchless": true}
	p := &Pass{
		Name: "allowhygiene",
		Doc:  "flag unknown, malformed and stale //proram: directives",
	}
	p.Run = func(u *Unit) {
		checks := make(map[string]bool)
		for _, name := range PassNames() {
			checks[name] = true
		}
		for _, d := range u.Pkg.Directives {
			pos := d.Pos
			switch {
			case !known[d.Kind]:
				u.Reportf(pos, "unknown directive //proram:%s (known: allow, invariant, public, secret, hotpath, detround, fixedtrip, branchless)", d.Kind)
			case d.Kind == "allow" && len(d.Checks) == 0:
				u.Reportf(pos, "//proram:allow names no check; write //proram:allow <check> <reason>")
			case d.Kind == "allow":
				for _, c := range d.Checks {
					if !checks[c] {
						u.Reportf(pos, "//proram:allow names unknown check %q (known: %s)", c, strings.Join(PassNames(), ", "))
					}
				}
			case d.Kind == "invariant" && d.Reason == "":
				u.Reportf(pos, "//proram:invariant needs a one-line justification")
			}
		}
	}
	p.Finish = func(r *Runner) {
		for _, pkg := range r.analyzed {
			for _, d := range pkg.Directives {
				if d.Kind != "allow" || d.used || len(d.Checks) == 0 {
					continue
				}
				ran := true
				for _, c := range d.Checks {
					if !r.executed[c] {
						ran = false
						break
					}
				}
				if !ran {
					continue
				}
				u := &Unit{Pass: p, Pkg: pkg, Prog: r.prog, r: r}
				u.Reportf(d.Pos, "//proram:allow %s suppresses nothing; delete the stale directive", strings.Join(d.Checks, ","))
			}
		}
	}
	return p
}
