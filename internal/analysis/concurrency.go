package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the helpers the concurrency-aware passes share:
// concdeterminism's channel shapes and the oblivious pass's scheduling
// sinks.

// syncMethodCall recognizes a call of a method declared in package sync
// (Mutex.Lock, Cond.Wait, ...), including a call through an embedded
// primitive (the method object still belongs to sync), and returns the
// primitive operand and the method name.
func syncMethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Type().(*types.Signature).Recv() == nil {
		return nil, "", false
	}
	return sel.X, fn.Name(), true
}

// rootIdent peels an expression (x.f[i].g, *x, &x) to its base
// identifier, or nil when the base is a call or a literal.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.UnaryExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// rootObject returns the variable at the base of an expression, or nil
// for non-variable roots.
func rootObject(info *types.Info, x ast.Expr) types.Object {
	id := rootIdent(x)
	if id == nil {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok {
		return v
	}
	return nil
}

// isChanType reports whether an expression has channel type.
func isChanType(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Chan)
	return ok
}
