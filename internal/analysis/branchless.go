package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Branchless verifies //proram:branchless functions: the constant-time
// kernels of the frontend (the PartitionMap scan, the masked compares
// feeding it) promise that no branch, select, short-circuit, map
// lookup or variable-latency shift depends on any input-derived value.
// Lengths are public by construction (the taint layer sanitizes
// len/cap), so counted loops over public geometry pass; anything whose
// condition or key carries a parameter, secret or unanalyzable origin
// is a finding. Calls from a branchless function must either target
// another //proram:branchless function, a vetted constant-time package
// (math/bits, crypto/subtle), or not receive derived values into
// parameters the callee branches on. //proram:public declassifies at
// a site; panic is accepted as the abort channel.
func Branchless() *Pass {
	p := &Pass{
		Name: "branchless",
		Doc:  "verify //proram:branchless functions contain no data-dependent branch, select, short-circuit, map access or variable shift, transitively through calls",
	}
	p.Run = func(u *Unit) {
		for _, node := range u.Funcs() {
			if node.marked(u.Prog, "branchless") != nil {
				env := u.Prog.taintSummaries().maskEnv(node)
				(&branchlessCheck{u: u, env: env}).check(node.Decl)
			}
		}
	}
	return p
}

type branchlessCheck struct {
	u   *Unit
	env *taintEnv
}

// maskDesc names the origins in a mask for diagnostics.
func maskDesc(m originMask) string {
	switch {
	case m&secretOrigin != 0:
		return "secret data"
	case m&opaqueOrigin != 0:
		return "values the analysis cannot trace"
	case m != 0:
		return "function inputs"
	}
	return "public data"
}

func (c *branchlessCheck) derived(e ast.Expr) (originMask, bool) {
	m := c.env.exprMask(e)
	return m, m != 0
}

// report flags a site unless a //proram:public directive declassifies
// the line (Reportf additionally honors //proram:allow).
func (c *branchlessCheck) report(pos token.Pos, format string, args ...any) {
	if c.env.declassified(pos) {
		return
	}
	c.u.Reportf(pos, format, args...)
}

func (c *branchlessCheck) check(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if m, bad := c.derived(x.Cond); bad {
				c.report(x.Cond.Pos(), "branchless function %s: if condition depends on %s", fn.Name.Name, maskDesc(m))
			}
		case *ast.ForStmt:
			if x.Cond != nil {
				if m, bad := c.derived(x.Cond); bad {
					c.report(x.Cond.Pos(), "branchless function %s: loop condition depends on %s", fn.Name.Name, maskDesc(m))
				}
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				if m, bad := c.derived(x.Tag); bad {
					c.report(x.Tag.Pos(), "branchless function %s: switch tag depends on %s", fn.Name.Name, maskDesc(m))
				}
			}
			for _, clause := range x.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if m, bad := c.derived(e); bad {
						c.report(e.Pos(), "branchless function %s: case expression depends on %s", fn.Name.Name, maskDesc(m))
					}
				}
			}
		case *ast.TypeSwitchStmt:
			c.report(x.Switch, "branchless function %s: type switches dispatch on dynamic types, which the constant-time contract cannot cover", fn.Name.Name)
		case *ast.SelectStmt:
			c.report(x.Select, "branchless function %s: select timing depends on channel readiness", fn.Name.Name)
		case *ast.GoStmt:
			c.report(x.Go, "branchless function %s: spawning a goroutine hands timing to the scheduler", fn.Name.Name)
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LAND, token.LOR:
				if m, bad := c.derived(x.X); bad {
					c.report(x.OpPos, "branchless function %s: %s short-circuits on an operand derived from %s; use bitwise &/| over masks", fn.Name.Name, x.Op, maskDesc(m))
				}
			case token.SHL, token.SHR:
				if c.constShift(x.Y) {
					break
				}
				if m, bad := c.derived(x.Y); bad {
					c.report(x.OpPos, "branchless function %s: shift amount depends on %s (variable-latency on some targets)", fn.Name.Name, maskDesc(m))
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.SHL_ASSIGN || x.Tok == token.SHR_ASSIGN {
				if !c.constShift(x.Rhs[0]) {
					if m, bad := c.derived(x.Rhs[0]); bad {
						c.report(x.TokPos, "branchless function %s: shift amount depends on %s (variable-latency on some targets)", fn.Name.Name, maskDesc(m))
					}
				}
			}
		case *ast.IndexExpr:
			if tv, ok := c.env.info().Types[x.Index]; ok && tv.IsType() {
				return true
			}
			if _, isMap := deref(typeOf(c.env.info(), x.X)).(*types.Map); isMap {
				if m, bad := c.derived(x.Index); bad {
					c.report(x.Pos(), "branchless function %s: map lookup keyed by %s has data-dependent latency", fn.Name.Name, maskDesc(m))
				}
			}
		case *ast.CallExpr:
			c.checkCall(fn, x)
		}
		return true
	})
}

func (c *branchlessCheck) constShift(e ast.Expr) bool {
	tv, ok := c.env.info().Types[e]
	return ok && tv.Value != nil
}

// checkCall verifies a call site: builtins and vetted constant-time
// packages pass, branchless-marked callees carry their own proof, and
// any other callee receiving a derived value is flagged — precisely
// (naming the sink) when the callee is resolved and is known to branch
// on that parameter, conservatively when the callee is opaque.
func (c *branchlessCheck) checkCall(fn *ast.FuncDecl, call *ast.CallExpr) {
	info := c.env.info()
	switch builtinName(info, call) {
	case "panic":
		// The abort channel: a panic ends the trace.
		return
	case "len", "cap", "append", "copy", "make", "new", "delete", "clear", "print", "println":
		return
	case "min", "max":
		for _, a := range call.Args {
			if m, bad := c.derived(a); bad {
				c.report(call.Pos(), "branchless function %s: min/max on %s may compile to a branch; use masked arithmetic", fn.Name.Name, maskDesc(m))
				return
			}
		}
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	callee := c.env.resolveCallee(call)
	if callee != nil {
		if callee.marked(c.u.Prog, "branchless") != nil {
			return // the callee carries its own branchless proof
		}
		masks, _ := c.env.callArgs(callee, call)
		sum := c.env.s.byFunc[callee.Fn]
		for i, m := range masks {
			if m == 0 || sum == nil || i >= len(sum.paramSinks) || len(sum.paramSinks[i]) == 0 {
				continue
			}
			c.report(call.Pos(), "branchless function %s: call to %s passes a value derived from %s into parameter %s, which %s branches on; mark the callee //proram:branchless or mask the value",
				fn.Name.Name, callee.Name(), maskDesc(m), callee.Params[i].Name(), callee.Name())
			return
		}
		return
	}
	if pkg, _ := calleePackageFunc(info, call); pkg == "math/bits" || pkg == "crypto/subtle" {
		return
	}
	for _, a := range call.Args {
		if m, bad := c.derived(a); bad {
			c.report(call.Pos(), "branchless function %s: call to an unanalyzable function passes a value derived from %s; the constant-time contract cannot be verified through it", fn.Name.Name, maskDesc(m))
			return
		}
	}
}
