package analysis

// SeedPlumbing verifies that every exported constructor in the module
// derives its generator's seed from a caller-supplied parameter instead
// of defaulting one internally. A constructor that hard-codes its seed
// silently correlates (or decorrelates) experiments that the caller
// believes share one seed knob — exactly the reproducibility bug
// DESIGN.md's "every stochastic component takes a seed" rule exists to
// prevent.
//
// The pass runs on call-graph reachability: the function summaries
// (summary.go) record every rng.New construction a function performs,
// directly or transitively through module-local helpers, together with
// the set of parameters whose values feed the seed. An exported New*
// constructor owning a site with an empty parameter set — no matter how
// many helpers deep the rng.New call hides — is flagged at the call
// that reaches it. Sites whose seed is caller-controlled somewhere down
// the chain, and sites already reported at a nested exported
// constructor, are not re-reported.
func SeedPlumbing() *Pass {
	p := &Pass{
		Name: "seedplumbing",
		Doc:  "exported constructors must thread caller-supplied seeds into rng construction (call-graph reachability)",
	}
	p.Run = func(u *Unit) {
		rngPath := u.Prog.ModulePath + "/internal/rng"
		if u.Pkg.Path == rngPath {
			return
		}
		sums := u.Prog.taintSummaries()
		for _, node := range u.Funcs() {
			if !isExportedConstructor(node) {
				continue
			}
			name := node.Decl.Name.Name
			for _, site := range sums.byFunc[node.Fn].rngSites {
				if site.mask != 0 {
					continue // caller-controlled (or untraceable) seed
				}
				if site.via == "" {
					u.Reportf(site.pos, "%s seeds its RNG internally; take a seed (or a config with a Seed field) and pass it through so callers control reproducibility", name)
				} else {
					u.Reportf(site.pos, "%s seeds its RNG internally (through %s); take a seed (or a config with a Seed field) and pass it through so callers control reproducibility", name, site.via)
				}
			}
		}
	}
	return p
}
