package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocDiscipline enforces that functions marked //proram:hotpath stay
// free of heap allocations. The ORAM access path runs O(log N) work per
// simulated memory access millions of times per run; PR 4 threaded an
// observability recorder through all of it on the promise (enforced by
// AllocsPerRun tests) that the instrumented path allocates nothing, and
// this pass keeps that promise under maintenance.
//
// Flagged allocation shapes: make and new, append (growth can
// reallocate the backing array), composite literals escaping through &,
// slice and map literals, string concatenation and string↔byte-slice
// conversions, fmt calls, go statements, and closures that capture
// enclosing variables. Two exemptions keep the signal honest:
//
//   - doomed blocks: an allocation on a path every exit of which panics
//     (the fmt.Sprintf feeding an invariant-violation panic) is failure
//     handling, not steady-state work (cfg.go);
//   - calls into internal/obs: the observability layer is nil-safe and
//     allocation-free when disabled, enforced by its own AllocsPerRun
//     tests.
//
// The pass is interprocedural: a hot-path call into a module-local
// helper that allocates is reported at the call site with the helper
// chain and the ultimate allocation position. Helpers that are
// themselves marked //proram:hotpath are skipped (they are checked in
// their own right), and an //proram:allow allocdiscipline on an
// allocation inside a helper exempts that site for every hot-path
// caller.
func AllocDiscipline() *Pass {
	p := &Pass{
		Name: "allocdiscipline",
		Doc:  "functions marked //proram:hotpath must not allocate on the heap, directly or through module-local callees",
	}
	p.Run = func(u *Unit) {
		as := u.Prog.allocSummaries()
		attached := make(map[*Directive]bool)
		for _, node := range u.Funcs() {
			d := node.marked(u.Prog, "hotpath")
			if d == nil {
				continue
			}
			attached[d] = true
			name := node.Decl.Name.Name
			for _, fact := range as.scan(node, false) {
				if fact.via == "" {
					u.Reportf(fact.pos, "%s in //proram:hotpath function %s; the ORAM access path must stay allocation-free (restructure, or justify with //proram:allow allocdiscipline)", fact.desc, name)
				} else {
					u.Reportf(fact.pos, "call to %s allocates (%s at %s) in //proram:hotpath function %s; the ORAM access path must stay allocation-free (restructure, or justify with //proram:allow allocdiscipline)", fact.via, fact.desc, u.Prog.relPosition(fact.ultimate), name)
				}
			}
		}
		for _, d := range u.Pkg.Directives {
			if d.Kind == "hotpath" && !attached[d] {
				u.Reportf(d.Pos, "//proram:hotpath is not attached to a function declaration; put it in the function's doc comment")
			}
		}
	}
	return p
}

// allocFact is one allocation attributable to a function: a direct site
// (via == "") or a call into an allocating module-local helper chain.
type allocFact struct {
	pos      token.Pos // where to report in the owning function
	ultimate token.Pos // the underlying allocation
	desc     string
	via      string // helper chain, "" for a direct allocation
}

// allocSummaries caches, per declared function, one representative
// allocation fact (nil means the function provably performs none of the
// flagged shapes outside doomed blocks).
type allocSummaries struct {
	prog   *Program
	byFunc map[*types.Func]*allocFact
}

func (p *Program) allocSummaries() *allocSummaries {
	if p.allocs == nil {
		p.allocs = computeAllocSummaries(p)
	}
	return p.allocs
}

func computeAllocSummaries(prog *Program) *allocSummaries {
	cg := prog.CallGraph()
	a := &allocSummaries{prog: prog, byFunc: make(map[*types.Func]*allocFact, len(cg.Nodes))}
	for _, comp := range cg.SCCs {
		// A second round lets facts flow around recursion cycles.
		rounds := 1
		if len(comp) > 1 {
			rounds = 2
		}
		for r := 0; r < rounds; r++ {
			for _, n := range comp {
				if facts := a.scan(n, true); len(facts) > 0 {
					f := facts[0]
					a.byFunc[n.Fn] = &f
				}
			}
		}
	}
	return a
}

// scan walks the function's CFG (and the CFGs of its nested function
// literals) and returns its allocation facts in source order, skipping
// doomed blocks. With filterAllowed set, sites suppressed by
// //proram:allow allocdiscipline are dropped and the directive marked
// used — that is how a justified allocation in a helper stays exempt
// for every hot-path caller.
func (a *allocSummaries) scan(n *CGNode, filterAllowed bool) []allocFact {
	var facts []allocFact
	a.scanBody(n, n.Decl.Body, filterAllowed, &facts)
	return facts
}

func (a *allocSummaries) scanBody(n *CGNode, body *ast.BlockStmt, filterAllowed bool, facts *[]allocFact) {
	g := buildCFG(n.Pkg.Info, body)
	doomed := g.doomed()
	for _, blk := range g.blocks {
		if doomed[blk.index] {
			continue
		}
		for _, nd := range blk.nodes {
			a.scanNode(n, nd, filterAllowed, facts)
		}
	}
}

func (a *allocSummaries) scanNode(n *CGNode, nd ast.Node, filterAllowed bool, facts *[]allocFact) {
	info := n.Pkg.Info
	add := func(pos, ultimate token.Pos, desc, via string) {
		if filterAllowed {
			p := a.prog.Fset.Position(pos)
			if d := n.Pkg.allowDirectiveFor("allocdiscipline", p.Filename, p.Line); d != nil {
				d.used = true
				return
			}
		}
		*facts = append(*facts, allocFact{pos: pos, ultimate: ultimate, desc: desc, via: via})
	}
	direct := func(pos token.Pos, desc string) { add(pos, pos, desc, "") }
	skip := make(map[ast.Node]bool)

	ast.Inspect(nd, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if capturesOuter(n.Pkg, x) {
				direct(x.Pos(), "closure captures escape to the heap")
			}
			a.scanBody(n, x.Body, filterAllowed, facts)
			return false
		case *ast.GoStmt:
			direct(x.Pos(), "go statement allocates")
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					direct(x.Pos(), "composite literal escapes to the heap")
					skip[cl] = true
				}
			}
		case *ast.CompositeLit:
			if skip[x] {
				return true
			}
			switch typeOf(info, x).(type) {
			case *types.Slice:
				direct(x.Pos(), "slice literal allocates")
			case *types.Map:
				direct(x.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info, x.X) {
				direct(x.OpPos, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info, x.Lhs[0]) {
				direct(x.TokPos, "string concatenation allocates")
			}
		case *ast.CallExpr:
			a.scanCall(n, x, add, direct)
		}
		return true
	})
}

// scanCall classifies one call: allocating builtins, string/byte-slice
// conversions, fmt, and resolved module-local callees whose summary
// says they allocate.
func (a *allocSummaries) scanCall(n *CGNode, call *ast.CallExpr, add func(pos, ultimate token.Pos, desc, via string), direct func(pos token.Pos, desc string)) {
	info := n.Pkg.Info
	if name := builtinName(info, call); name != "" {
		switch name {
		case "make", "new":
			direct(call.Pos(), name+" allocates")
		case "append":
			direct(call.Pos(), "append may grow its backing array")
		}
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if conversionCopies(info, call) {
			direct(call.Pos(), "string/byte-slice conversion copies")
		}
		return
	}
	if pkgPath, fname := calleePackageFunc(info, call); pkgPath == "fmt" {
		direct(call.Pos(), "fmt."+fname+" allocates")
		return
	}
	callee := a.prog.CallGraph().resolveCall(n.Pkg, call)
	if callee == nil || callee == n {
		return
	}
	if callee.Pkg.Path == a.prog.ModulePath+"/internal/obs" {
		return // nil-safe and allocation-free when disabled, by its own tests
	}
	// A callee that is itself marked hot is checked in its own right.
	if cf := a.byFunc[callee.Fn]; cf != nil && callee.marked(a.prog, "hotpath") == nil {
		via := callee.Name()
		if cf.via != "" {
			via += " → " + cf.via
		}
		add(call.Pos(), cf.ultimate, cf.desc, via)
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

func isStringType(info *types.Info, e ast.Expr) bool {
	b, ok := typeOf(info, e).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// conversionCopies reports string([]byte), []byte(string) and the rune
// variants — the conversions that copy their operand to fresh memory.
func conversionCopies(info *types.Info, call *ast.CallExpr) bool {
	dst := typeOf(info, call.Fun)
	src := typeOf(info, call.Args[0])
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStr(src))
}

// capturesOuter reports whether a function literal references a
// variable declared outside it (which forces the captured environment —
// and usually the closure itself — onto the heap).
func capturesOuter(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if captured {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-scope variables (of any package) are not captures: a
		// package scope's parent is the universe scope.
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}
