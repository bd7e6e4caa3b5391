package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BoundsCheck is the bounds-proof discipline for //proram:hotpath
// functions. A hot-path indexing that the compiler cannot prove
// in-bounds costs a checked branch per access — and a hot-path indexing
// that *fails* its check panics mid-round, which is both a crash and a
// distinguishable trace ending. This pass demands that every slice,
// array and string indexing in a hotpath function be provable from
// what dominates it: the index's computed interval, a dominating
// comparison against the container's length, a range binding, or an
// earlier indexing that already pinned the container (the `_ = s[n-1]`
// idiom — the pin itself is exempt, it IS the check).
//
// The proof engine is the value-range layer in vrange.go: saturating
// intervals over the SSA view plus difference constraints harvested
// from dominating branches and executed indexings, decided by a
// Bellman–Ford closure. Anything it cannot prove is a finding naming
// the index's range and the missing side of the proof.
func BoundsCheck() *Pass {
	p := &Pass{
		Name: "boundscheck",
		Doc:  "prove every slice/array/string indexing in //proram:hotpath functions in-bounds from dominating checks, intervals and pins",
	}
	p.Run = func(u *Unit) {
		for _, node := range u.Funcs() {
			if node.marked(u.Prog, "hotpath") != nil {
				checkFuncBounds(u, node)
			}
		}
	}
	return p
}

func checkFuncBounds(u *Unit, node *CGNode) {
	v := u.Prog.valueRange(node)
	doomed := v.fn.cfg.doomed()
	for _, b := range v.fn.cfg.blocks {
		if !v.fn.reach[b.index] || doomed[b.index] {
			continue
		}
		for nodeIdx, n := range b.nodes {
			exempt := pinTarget(n)
			walkIndexings(u, v, b.index, nodeIdx, n, nil, exempt)
		}
	}
}

// pinTarget recognizes the pin idiom `_ = s[expr]` and returns its
// IndexExpr: the statement exists to be the bound check, so it is not
// itself an obligation (but it still feeds facts to later nodes).
func pinTarget(n ast.Node) ast.Expr {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
		return nil
	}
	if ix, ok := ast.Unparen(as.Rhs[0]).(*ast.IndexExpr); ok {
		return ix
	}
	return nil
}

// walkIndexings visits every indexing of one CFG node, carrying the
// short-circuit guard stack: inside the right operand of && the left
// operand is known true, so `i < len(s) && s[i] == x` proves itself.
func walkIndexings(u *Unit, v *vrangeFunc, blk, nodeIdx int, n ast.Node, guards []guardFact, exempt ast.Expr) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if x.Op == token.LAND || x.Op == token.LOR {
				walkIndexings(u, v, blk, nodeIdx, x.X, guards, exempt)
				walkIndexings(u, v, blk, nodeIdx, x.Y, append(append([]guardFact(nil), guards...), guardFact{cond: x.X, sense: x.Op == token.LAND}), exempt)
				return false
			}
		case *ast.IndexExpr:
			if x != exempt {
				checkIndexing(u, v, blk, nodeIdx, x, guards)
			}
		}
		return true
	})
}

// checkIndexing discharges (or reports) one indexing obligation.
func checkIndexing(u *Unit, v *vrangeFunc, blk, nodeIdx int, x *ast.IndexExpr, guards []guardFact) {
	info := v.fn.info()
	if tv, ok := info.Types[x.Index]; ok && tv.IsType() {
		return // generic instantiation
	}

	var arrLen int64 = -1
	switch t := deref(typeOf(info, x.X)).(type) {
	case *types.Array:
		arrLen = t.Len()
	case *types.Slice:
	case *types.Basic:
		if t.Info()&types.IsString == 0 {
			return
		}
	default:
		return
	}

	iv := v.evalExpr(x.Index)
	lowerOK := !iv.empty() && iv.lo >= 0
	upperOK := arrLen >= 0 && !iv.empty() && iv.hi <= arrLen-1

	var facts []vfact
	it, ioff, canonOK := v.canon(x.Index, 0)
	if (!lowerOK || !upperOK) && canonOK {
		facts = v.factsAt(blk, nodeIdx, guards)
		if !lowerOK {
			lowerOK = v.prove(facts, zTerm, 0, it, ioff, 0)
		}
		if !upperOK {
			if arrLen >= 0 {
				upperOK = v.prove(facts, it, ioff, zTerm, 0, arrLen-1)
			} else if ct, coff, ok := v.canon(x.X, 0); ok && coff == 0 && !ct.len && ct.vid >= 0 {
				lenT := vterm{vid: ct.vid, len: true, path: ct.path}
				upperOK = v.prove(facts, it, ioff, lenT, 0, -1)
			}
		}
	}
	if lowerOK && upperOK {
		return
	}

	side := "in bounds"
	switch {
	case lowerOK:
		side = "below the length"
	case upperOK:
		side = "non-negative"
	}
	u.Reportf(x.Pos(), "cannot prove %s stays %s (index range %s); add a dominating bound check or pin the container with _ = %s[max]",
		types.ExprString(x), side, iv, types.ExprString(x.X))
}
