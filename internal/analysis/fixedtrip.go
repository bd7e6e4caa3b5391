package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FixedTrip is the static padding-proof pass. Obliviousness in PrORAM
// rests on loops whose iteration count is a public constant of the
// configuration — the scheduler pads every round to RoundSlots slots
// and flushes in exactly two sub-rounds, so the DRAM trace length never
// depends on the demand sequence. The live auditor checks those shapes
// at run time; this pass proves them at vet time.
//
// Two obligations:
//
//   - Every loop in the oblivious scope whose condition is derived from
//     secret data is reported: a secret-dependent trip count leaks
//     through timing and trace length no matter what the body does.
//
//   - Every loop marked //proram:fixedtrip <reason> must have a trip
//     count the analysis can prove fixed before the loop starts: a
//     counted loop (single init, invariant non-secret bound, constant
//     step, no break/return/goto out of the loop — panic is accepted as
//     the abort channel), or a range loop over a non-map, non-channel
//     container evaluated once, with no early exits. Everything else is
//     a finding; the proof, not the intent, is the contract.
//
// Secret flow into a bound through a parameter is covered by the
// oblivious pass's sink machinery (a loop condition is a branch sink),
// so a param-derived bound is accepted here and the call sites carry
// the obligation.
func FixedTrip(scopes ...string) *Pass {
	if len(scopes) == 0 {
		scopes = []string{"internal/oram", "internal/stash", "internal/posmap", "internal/shard", "internal/dram/banked"}
	}
	p := &Pass{
		Name: "fixedtrip",
		Doc:  "prove //proram:fixedtrip loops have a secret-independent trip count; flag secret-dependent loop conditions in the oblivious scope",
	}
	p.Run = func(u *Unit) {
		if !inScope(u.Pkg.Rel, scopes) {
			return
		}
		for _, node := range u.Funcs() {
			checkFuncLoops(u, node)
		}
	}
	return p
}

// loopView is what the trip-count proof reads of one function: the SSA
// view (ssa.go) that resolves each read of a local to one definition,
// and the taint environment (summary.go) that answers whether an
// expression derives from a secret.
type loopView struct {
	fn  *ssaFunc
	env *taintEnv
}

// constOf returns the value of an integer constant expression.
func (v *loopView) constOf(e ast.Expr) (int64, bool) {
	if tv, ok := v.fn.info().Types[e]; ok && tv.Value != nil {
		return constant.Int64Val(constant.ToInt(tv.Value))
	}
	return 0, false
}

// fieldPathRoot resolves a field chain a.b.c to the SSA value of its
// root a, when a is a tracked local of value-struct type with no field
// stores: with no pointers anywhere in the chain there is no aliasing,
// so the path is as immutable as the root's SSA version.
func (v *loopView) fieldPathRoot(sel *ast.SelectorExpr) (int, bool) {
	info := v.fn.info()
	e := ast.Expr(sel)
	for {
		s, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		ss, ok := info.Selections[s]
		if !ok || ss.Kind() != types.FieldVal {
			return 0, false
		}
		if _, ok := typeOf(info, s.X).Underlying().(*types.Struct); !ok {
			return 0, false
		}
		e = ast.Unparen(s.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	vid, ok := v.fn.useOf[id]
	if !ok {
		return 0, false
	}
	if obj := info.Uses[id]; obj == nil || v.fn.written[obj] {
		return 0, false
	}
	return vid, true
}

// loopFor returns the position and kind name used in fixedtrip
// diagnostics for a loop statement.
func loopFor(s ast.Stmt) (token.Pos, string) {
	switch s := s.(type) {
	case *ast.ForStmt:
		return s.For, "for loop"
	case *ast.RangeStmt:
		return s.For, "range loop"
	}
	return token.NoPos, ""
}

// checkFuncLoops analyzes every loop of one declared function. Loops
// inside function literals are outside the SSA view; a fixedtrip mark
// on one is itself a finding (move the loop into a named function).
func checkFuncLoops(u *Unit, node *CGNode) {
	v := &loopView{fn: buildSSA(node.Pkg, node.Decl), env: u.Prog.taintSummaries().maskEnv(node)}
	doomed := v.fn.cfg.doomed()

	marked := func(s ast.Stmt) *Directive {
		pos, _ := loopFor(s)
		pp := u.Prog.Fset.Position(pos)
		return u.Pkg.directiveAt("fixedtrip", pp.Filename, pp.Line)
	}

	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(x.Body, true)
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				s := x.(ast.Stmt)
				pos, kind := loopFor(s)
				if inLit {
					if marked(s) != nil {
						u.Reportf(pos, "%s marked //proram:fixedtrip is inside a function literal, which the trip-count proof cannot see; move it into a named function", kind)
					}
					return true
				}
				checkLoop(u, v, doomed, s, marked(s) != nil)
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
}

func checkLoop(u *Unit, v *loopView, doomed []bool, s ast.Stmt, marked bool) {
	pos, kind := loopFor(s)
	head := v.fn.cfg.loops[s]
	if head == nil || !v.fn.reach[head.index] {
		return
	}

	// Generic obligation: a secret-derived loop condition leaks the trip
	// count regardless of any directive.
	if f, ok := s.(*ast.ForStmt); ok && f.Cond != nil {
		if v.env.exprMask(f.Cond)&secretOrigin != 0 {
			u.Reportf(pos, "loop condition depends on secret data; the trip count leaks through trace length and timing")
			return
		}
	}
	if r, ok := s.(*ast.RangeStmt); ok {
		if v.env.exprMask(r.X)&secretOrigin != 0 {
			u.Reportf(pos, "range loop iterates over a secret-derived container; the trip count leaks through trace length and timing")
			return
		}
	}
	if !marked {
		return
	}

	if why := fixedTripProof(v, doomed, s, head); why != "" {
		u.Reportf(pos, "%s marked //proram:fixedtrip but the trip count is not provably fixed: %s", kind, why)
	}
}

// fixedTripProof returns "" when the loop's trip count is proven fixed
// before entry, or the reason the proof fails.
func fixedTripProof(v *loopView, doomed []bool, s ast.Stmt, head *cfgBlock) string {
	loop := v.fn.loopBlocks(head.index)

	normalExit := -1
	if head.condExit != nil {
		normalExit = head.condExit.index
	}
	if head.rangeLoop != nil {
		for _, succ := range head.succs {
			if succ != head.rangeBody {
				normalExit = succ.index
			}
		}
	}
	if why := earlyExit(v.fn, doomed, loop, head.index, normalExit); why != "" {
		return why
	}

	switch st := s.(type) {
	case *ast.ForStmt:
		return countedLoopProof(v, loop, st)
	case *ast.RangeStmt:
		return rangeLoopProof(v, st)
	}
	return "unsupported loop form"
}

// earlyExit scans the natural loop for edges that leave it other than
// the head's own exit edge. Panic paths (doomed blocks) are the abort
// channel and are accepted.
func earlyExit(f *ssaFunc, doomed []bool, loop map[int]bool, head, normalExit int) string {
	//proram:allow maporder existence scan: any visit order finds the same early exits
	for bi := range loop {
		for _, succ := range f.cfg.blocks[bi].succs {
			si := succ.index
			if loop[si] || doomed[si] {
				continue
			}
			if bi == head && si == normalExit {
				continue
			}
			return "the body can leave the loop early (break, return or goto); every iteration must run"
		}
	}
	return ""
}

// countedLoopProof proves the canonical counted form: i starts at a
// value defined before the loop, the condition compares i against an
// invariant non-secret bound, and the only write to i inside the loop
// is the constant-step post statement.
func countedLoopProof(v *loopView, loop map[int]bool, s *ast.ForStmt) string {
	if s.Cond == nil {
		return "the loop has no condition, so no bound exists"
	}
	cond, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok {
		return "the condition is not a comparison of the counter against a bound"
	}

	// Normalize to counter OP bound.
	counter, bound, op := cond.X, cond.Y, cond.Op
	if _, isIdent := ast.Unparen(cond.X).(*ast.Ident); !isIdent {
		counter, bound = cond.Y, cond.X
		switch op {
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		}
	}
	id, ok := ast.Unparen(counter).(*ast.Ident)
	if !ok {
		return "the condition is not a comparison of the counter against a bound"
	}
	if op == token.NEQ || op == token.EQL {
		return "a != or == condition can overshoot; compare with <, <=, > or >="
	}
	if _, ok := v.fn.useOf[id]; !ok {
		return fmt.Sprintf("the counter %s is not statically trackable (its address escapes or a function literal writes it)", id.Name)
	}
	obj := v.fn.info().Uses[id]

	increasing, why := stepDirection(v, s.Post, obj)
	if why != "" {
		return why
	}
	if increasing && op != token.LSS && op != token.LEQ {
		return "the counter increases but the condition does not bound it from above"
	}
	if !increasing && op != token.GTR && op != token.GEQ {
		return "the counter decreases but the condition does not bound it from below"
	}

	// The only definition of the counter inside the loop must be the
	// post step (phis at the head merge versions; they define nothing).
	steps := 0
	for _, val := range v.fn.vals {
		if val.obj != obj || val.kind == ssaPhi || !loop[val.block] {
			continue
		}
		if val.kind != ssaStep {
			return fmt.Sprintf("the counter %s is reassigned inside the loop body", id.Name)
		}
		steps++
	}
	if steps != 1 {
		return fmt.Sprintf("the counter %s is stepped more than once per iteration", id.Name)
	}

	if v.env.exprMask(id)&secretOrigin != 0 {
		return fmt.Sprintf("the counter %s is derived from secret data", id.Name)
	}
	if v.env.exprMask(bound)&secretOrigin != 0 {
		return "the bound is derived from secret data"
	}
	if why := loopInvariant(v, loop, bound); why != "" {
		return fmt.Sprintf("the bound is not provably loop-invariant: %s", why)
	}
	return ""
}

// stepDirection validates the post statement as a constant step of the
// counter and reports its direction.
func stepDirection(v *loopView, post ast.Stmt, obj types.Object) (increasing bool, why string) {
	target := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && v.fn.info().Uses[id] == obj
	}
	switch p := post.(type) {
	case *ast.IncDecStmt:
		if !target(p.X) {
			return false, "the post statement does not step the counter from the condition"
		}
		return p.Tok == token.INC, ""
	case *ast.AssignStmt:
		if len(p.Lhs) != 1 || !target(p.Lhs[0]) {
			return false, "the post statement does not step the counter from the condition"
		}
		c, ok := v.constOf(p.Rhs[0])
		if !ok || c < 1 {
			return false, "the post statement's step is not a positive constant"
		}
		switch p.Tok {
		case token.ADD_ASSIGN:
			return true, ""
		case token.SUB_ASSIGN:
			return false, ""
		}
		return false, "the post statement is not a constant += or -= step"
	case nil:
		return false, "the loop has no post statement stepping the counter"
	}
	return false, "the post statement is not ++, -- or a constant-step assignment"
}

// loopInvariant checks that an expression reads nothing defined inside
// the loop and nothing the analysis cannot pin down: tracked locals
// defined outside, constants, value-struct field paths with no field
// stores, and len/cap/min/max of such. Returns "" or the reason.
func loopInvariant(v *loopView, loop map[int]bool, e ast.Expr) string {
	info := v.fn.info()
	var check func(e ast.Expr) string
	check = func(e ast.Expr) string {
		e = ast.Unparen(e)
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return ""
		}
		switch x := e.(type) {
		case *ast.Ident:
			switch info.Uses[x].(type) {
			case *types.Const, *types.Nil, nil:
				return ""
			}
			vid, ok := v.fn.useOf[x]
			if !ok {
				return fmt.Sprintf("%s is not statically trackable", x.Name)
			}
			if loop[v.fn.vals[vid].block] {
				return fmt.Sprintf("%s is assigned inside the loop", x.Name)
			}
			return ""
		case *ast.SelectorExpr:
			root, ok := v.fieldPathRoot(x)
			if !ok {
				return fmt.Sprintf("%s is not a field path the analysis can prove immutable; hoist it into a local before the loop", types.ExprString(x))
			}
			if loop[v.fn.vals[root].block] {
				return fmt.Sprintf("the base of %s is assigned inside the loop", types.ExprString(x))
			}
			return ""
		case *ast.BinaryExpr:
			if why := check(x.X); why != "" {
				return why
			}
			return check(x.Y)
		case *ast.UnaryExpr:
			if x.Op == token.SUB || x.Op == token.ADD || x.Op == token.XOR {
				return check(x.X)
			}
		case *ast.CallExpr:
			switch builtinName(info, x) {
			case "len", "cap", "min", "max":
				for _, a := range x.Args {
					if why := check(a); why != "" {
						return why
					}
				}
				return ""
			}
			return fmt.Sprintf("%s calls a function, which may return a different value each iteration", types.ExprString(e))
		}
		return fmt.Sprintf("%s is not a form the invariance check understands", types.ExprString(e))
	}
	return check(e)
}

// rangeLoopProof proves a range loop fixed: the container is evaluated
// once at entry, so it only needs a statically countable container kind
// and no secret derivation (checked by the caller).
func rangeLoopProof(v *loopView, s *ast.RangeStmt) string {
	t := typeOf(v.fn.info(), s.X)
	if t == nil {
		return "the container's type is unknown"
	}
	switch u := deref(t).(type) {
	case *types.Slice, *types.Array:
		return ""
	case *types.Basic:
		if u.Info()&types.IsInteger != 0 || u.Info()&types.IsString != 0 {
			return ""
		}
	case *types.Map:
		return "ranging over a map: entries added during iteration may or may not be visited, so the trip count is not fixed"
	case *types.Chan:
		return "ranging over a channel: the trip count depends on the sender"
	case *types.Signature:
		return "ranging over an iterator function: the trip count is whatever the function decides"
	}
	return fmt.Sprintf("ranging over %s is not a form the trip-count proof understands", t)
}
