package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` over map values in library packages unless
// the loop body is provably order-insensitive. Go randomizes map
// iteration order on purpose, so any loop whose effect depends on visit
// order — building an error message, appending to a slice, folding
// floats — makes stats, traces and invariant reports differ between
// runs of the same seed.
//
// The order-insensitivity proof is deliberately conservative. A body is
// accepted only if every statement is one of: a declaration of
// loop-local variables, a plain assignment to loop-local variables, a
// commutative compound assignment (+=, -=, *=, |=, &=, ^=) or ++/-- on
// an integer, a delete from a map, or an if/for composed of the same
// (with call-free conditions). Anything else — in particular append,
// function calls, string or float accumulation, and early exits — needs
// either restructuring (sort the keys first) or a //proram:allow
// maporder directive with a reason.
func MapOrder() *Pass {
	p := &Pass{
		Name: "maporder",
		Doc:  "flag order-sensitive iteration over Go maps in library packages",
	}
	p.Run = func(u *Unit) {
		if u.Pkg.Name == "main" {
			return
		}
		for _, f := range u.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := u.Pkg.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pr := &orderProver{info: u.Pkg.Info}
				pr.declare(rs.Key)
				pr.declare(rs.Value)
				if !pr.insensitiveBlock(rs.Body) {
					u.Reportf(rs.Pos(), "map iteration order is randomized and this loop body is not provably order-insensitive; sort the keys first or justify with //proram:allow maporder")
				}
				return true
			})
		}
	}
	return p
}

// orderProver tracks which variables are local to the loop body; writes
// to those cannot leak order outside the loop.
type orderProver struct {
	info   *types.Info
	locals map[types.Object]bool
}

func (p *orderProver) declare(e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if obj := p.info.Defs[id]; obj != nil {
		if p.locals == nil {
			p.locals = make(map[types.Object]bool)
		}
		p.locals[obj] = true
	}
}

func (p *orderProver) isLocal(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.info.Uses[id]
	if obj == nil {
		obj = p.info.Defs[id]
	}
	return obj != nil && p.locals[obj]
}

func (p *orderProver) insensitiveBlock(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !p.insensitiveStmt(s) {
			return false
		}
	}
	return true
}

func (p *orderProver) insensitiveStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, name := range vs.Names {
				p.declare(name)
			}
			for _, v := range vs.Values {
				if !p.pureExpr(v) {
					return false
				}
			}
		}
		return true
	case *ast.AssignStmt:
		return p.insensitiveAssign(s)
	case *ast.IncDecStmt:
		return isExactNumeric(p.info, s.X)
	case *ast.ExprStmt:
		// delete(m, k) commutes across iteration order; no other call is
		// assumed to.
		call, ok := s.X.(*ast.CallExpr)
		return ok && builtinName(p.info, call) == "delete"
	case *ast.IfStmt:
		if s.Init != nil && !p.insensitiveStmt(s.Init) {
			return false
		}
		if !p.pureExpr(s.Cond) || !p.insensitiveBlock(s.Body) {
			return false
		}
		return p.insensitiveStmt(s.Else)
	case *ast.BlockStmt:
		return p.insensitiveBlock(s)
	case *ast.ForStmt:
		if s.Init != nil && !p.insensitiveStmt(s.Init) {
			return false
		}
		if s.Cond != nil && !p.pureExpr(s.Cond) {
			return false
		}
		if s.Post != nil && !p.insensitiveStmt(s.Post) {
			return false
		}
		return p.insensitiveBlock(s.Body)
	case *ast.RangeStmt:
		p.declare(s.Key)
		p.declare(s.Value)
		return p.insensitiveBlock(s.Body)
	case *ast.BranchStmt:
		// continue just moves to the next key; break/goto make the set of
		// executed iterations order-dependent.
		return s.Tok == token.CONTINUE && s.Label == nil
	default:
		// return, break, goto, send, go, defer, switch, select: order
		// (or at least first-hit) escapes the loop.
		return false
	}
}

// commutativeAssignOps are the compound assignments that fold a value
// into an accumulator through a commutative, associative operation —
// provided the operands are exact (integer) values.
var commutativeAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true, // s -= x accumulates -x; still commutative
	token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
}

func (p *orderProver) insensitiveAssign(s *ast.AssignStmt) bool {
	switch {
	case s.Tok == token.DEFINE:
		for _, l := range s.Lhs {
			p.declare(l)
		}
		for _, r := range s.Rhs {
			if !p.pureExpr(r) {
				return false
			}
		}
		return true
	case s.Tok == token.ASSIGN:
		// Plain assignment is last-write-wins: only loop-local targets
		// are safe.
		for _, l := range s.Lhs {
			if !p.isLocal(l) {
				return false
			}
		}
		for _, r := range s.Rhs {
			if !p.pureExpr(r) {
				return false
			}
		}
		return true
	case commutativeAssignOps[s.Tok]:
		// Integer accumulation commutes exactly; float addition does not
		// (rounding depends on order) and string += is concatenation.
		return isExactNumeric(p.info, s.Lhs[0]) && p.pureExpr(s.Rhs[0])
	default:
		return false
	}
}

// pureExpr reports whether evaluating e has no side effects and no
// scheduling dependence: no calls (except len/cap and conversions), no
// channel receives, no function literals.
func (p *orderProver) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			switch builtinName(p.info, n) {
			case "len", "cap", "min", "max":
				return true
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			pure = false
			return false
		}
		return true
	})
	return pure
}

// isExactNumeric reports whether e has an integer type (exact
// arithmetic, so reduction order cannot change the result).
func isExactNumeric(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&types.IsInteger != 0
}
