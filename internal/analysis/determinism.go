package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// bannedTimeFuncs are the time package functions that read the wall or
// monotonic clock. time.Duration arithmetic stays legal: only *reading*
// a clock breaks reproducibility.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// Determinism forbids the nondeterminism sources that would break
// DESIGN.md's bit-reproducibility mandate: the math/rand global generator
// (seeded from the clock), wall-clock reads, select statements with a
// default clause (scheduling-dependent control flow), crypto randomness
// inside internal packages, and RNGs constructed from hard-coded seeds.
func Determinism() *Pass {
	p := &Pass{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, math/rand, racy selects and unseeded RNG construction",
	}
	p.Run = func(u *Unit) {
		internal := strings.HasPrefix(u.Pkg.Path, u.Prog.ModulePath+"/internal/")
		for _, f := range u.Pkg.Files {
			for _, imp := range f.Imports {
				switch strings.Trim(imp.Path.Value, `"`) {
				case "math/rand", "math/rand/v2":
					u.Reportf(imp.Pos(), "import of %s: the global generator is seeded from the clock; use proram/internal/rng with an explicit seed", imp.Path.Value)
				case "crypto/rand":
					if internal {
						u.Reportf(imp.Pos(), "import of crypto/rand in an internal package: simulation randomness must come from a seeded proram/internal/rng source")
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectStmt:
					for _, clause := range n.Body.List {
						if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
							u.Reportf(n.Pos(), "select with a default clause makes control flow depend on goroutine scheduling; restructure or justify with //proram:allow determinism")
						}
					}
				case *ast.CallExpr:
					pkgPath, fn := calleePackageFunc(u.Pkg.Info, n)
					switch {
					case pkgPath == "time" && bannedTimeFuncs[fn]:
						u.Reportf(n.Pos(), "time.%s reads the clock; simulator output must be a pure function of the seed", fn)
					case pkgPath == u.Prog.ModulePath+"/internal/rng" && fn == "New" && internal:
						if len(n.Args) == 1 {
							if _, lit := n.Args[0].(*ast.BasicLit); lit {
								u.Reportf(n.Pos(), "rng.New with a hard-coded seed: thread the seed from the caller so whole runs stay reproducible from one knob")
							}
						}
					}
				}
				return true
			})
		}
	}
	return p
}

// calleePackageFunc resolves a call of the form pkg.Fn to its package
// path and function name, or ("", "") for anything else.
func calleePackageFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
