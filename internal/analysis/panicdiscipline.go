package analysis

import "go/ast"

// PanicDiscipline reports panic calls in library (non-main) packages.
// A panic in a library either crashes a long-running production process
// or, worse, gets recovered far from the fault with the simulator in an
// inconsistent state. Library code must return errors; the narrow
// exception is a genuine internal invariant — a condition that cannot
// occur unless the program itself is buggy — which must carry a
// //proram:invariant directive with a one-line justification.
func PanicDiscipline() *Pass {
	p := &Pass{
		Name: "panicdiscipline",
		Doc:  "require error returns or //proram:invariant justifications instead of library panics",
	}
	p.Run = func(u *Unit) {
		if u.Pkg.Name == "main" {
			return
		}
		for _, f := range u.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || builtinName(u.Pkg.Info, call) != "panic" {
					return true
				}
				pos := u.Prog.Fset.Position(call.Pos())
				if d := u.Pkg.directiveAt("invariant", pos.Filename, pos.Line); d != nil {
					if d.Reason == "" {
						u.Reportf(call.Pos(), "//proram:invariant needs a one-line justification for why this panic is unreachable")
					}
					return true
				}
				u.Reportf(call.Pos(), "panic in library code: return an error, or justify an unreachable invariant with //proram:invariant")
				return true
			})
		}
	}
	return p
}
