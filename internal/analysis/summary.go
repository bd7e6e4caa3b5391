package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes bottom-up interprocedural function summaries over
// the call graph. A summary answers, per declared function, in terms of
// the function's own parameters:
//
//   - returnMask: which origins (parameters, or the secret payload
//     source itself) can flow into its return values;
//   - paramFlows: which origins it writes into a parameter's referent
//     (through a pointer, slice, map or receiver field);
//   - paramSinks: which secret-sensitive sinks (branch conditions,
//     memory indexes, observability emissions) a parameter's value can
//     reach, directly or through further calls;
//   - rngSites: where it constructs an RNG and which parameters feed the
//     seed (the seedplumbing pass's reachability facts);
//   - reports: the secret-origin findings to emit when the oblivious
//     pass covers the package.
//
// The origin domain is a 64-bit mask: bit 63 is "secret payload bytes"
// (a read of a //proram:secret field), bit 62 is "derived from something
// this analysis cannot translate across the call boundary" (function
// literal parameters), and bits 0..61 are the receiver-first parameter
// indexes. Masks only grow, translation across a call maps callee
// parameter bits to the caller's argument masks, and strongly connected
// components iterate to a fixpoint, so recursion converges.
//
// Precision matches the old intra-procedural pass on straight-line
// code: len/cap sanitize, writing into x.f/x[i]/*x taints the container
// x, //proram:public on an assignment or sink declassifies. Calls into
// internal/obs are never summarized through — the emission itself is
// the sink there — and calls the call graph cannot resolve fall back to
// the old conservative rule (the union of the argument masks).

type originMask uint64

const (
	secretOrigin originMask = 1 << 63
	opaqueOrigin originMask = 1 << 62

	maxTrackedParams = 62
)

func paramBit(i int) originMask {
	if i < 0 || i >= maxTrackedParams {
		return opaqueOrigin
	}
	return originMask(1) << uint(i)
}

// translateMask rewrites a callee-relative mask into the caller's frame:
// secret stays secret, parameter bits become the corresponding argument
// masks, and opaque derivations are dropped (they cannot be traced
// through the boundary).
func translateMask(m originMask, argMasks []originMask) originMask {
	out := m & secretOrigin
	for i := 0; i < len(argMasks) && i < maxTrackedParams; i++ {
		if m&paramBit(i) != 0 {
			out |= argMasks[i]
		}
	}
	return out
}

// sinkRef is one secret-sensitive sink reachable from a parameter.
type sinkRef struct {
	what string    // "if condition", "memory index", "observability emission", ...
	pos  token.Pos // the ultimate sink
	via  string    // call chain from the summarized function, "" when local
}

// rngSite is one RNG construction reachable from a function: a direct
// rng.New call, or a call into a helper that constructs one. mask holds
// the parameters whose values feed the seed; 0 means internally seeded.
type rngSite struct {
	pos  token.Pos // the call in this function (rng.New or the helper call)
	mask originMask
	via  string // helper chain, "" for a direct rng.New call
}

type taintReport struct {
	pos token.Pos
	msg string
}

type funcSummary struct {
	returnMask originMask
	paramFlows []originMask
	paramSinks [][]sinkRef
	rngSites   []rngSite
	reports    []taintReport
}

type summaries struct {
	prog   *Program
	byFunc map[*types.Func]*funcSummary
	envs   map[*types.Func]*taintEnv
}

// maskEnv returns a taint environment whose object state sits at the
// function's fixpoint — the same state analyze converges to — so
// clients can evaluate exprMask at arbitrary expressions of the body.
// The fixedtrip and branchless passes use it to ask "is this loop bound
// or branch condition derived from a secret or a parameter?" without
// re-deriving the propagation rules. Environments are cached per
// function; the underlying summaries are already final, so one
// propagation fixpoint rebuilds the state exactly.
func (s *summaries) maskEnv(n *CGNode) *taintEnv {
	if s.envs == nil {
		s.envs = make(map[*types.Func]*taintEnv)
	}
	if e, ok := s.envs[n.Fn]; ok {
		return e
	}
	e := s.newEnv(n)
	for i := 0; i < 64; i++ {
		if !e.propagate() {
			break
		}
	}
	s.envs[n.Fn] = e
	return e
}

// newEnv builds the initial per-function taint state: parameters carry
// their own bits, function-literal parameters are opaque.
func (s *summaries) newEnv(n *CGNode) *taintEnv {
	e := &taintEnv{
		s:        s,
		n:        n,
		sum:      s.byFunc[n.Fn],
		state:    make(map[types.Object]originMask),
		paramIdx: make(map[types.Object]int),
	}
	for i, p := range n.Params {
		e.paramIdx[p] = i
		e.state[p] = paramBit(i)
	}
	// Function-literal parameters are caller-controlled at a level this
	// summary cannot express; mark them opaque so derivations neither
	// look secret nor look internally fabricated.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := n.Pkg.Info.Defs[name]; obj != nil {
					e.state[obj] = opaqueOrigin
				}
			}
		}
		return true
	})
	return e
}

// taintSummaries builds (once) the summaries for every declared
// function, visiting SCCs bottom-up.
func (p *Program) taintSummaries() *summaries {
	if p.sums == nil {
		p.sums = computeSummaries(p)
	}
	return p.sums
}

func computeSummaries(prog *Program) *summaries {
	cg := prog.CallGraph()
	s := &summaries{prog: prog, byFunc: make(map[*types.Func]*funcSummary, len(cg.Nodes))}
	for _, n := range cg.Nodes {
		s.byFunc[n.Fn] = &funcSummary{
			paramFlows: make([]originMask, len(n.Params)),
			paramSinks: make([][]sinkRef, len(n.Params)),
		}
	}
	for _, comp := range cg.SCCs {
		// Singleton components converge in one pass; cycles iterate until
		// the member summaries stop growing. The domain is finite (masks
		// and dedup'd sink sets only grow), so the bound is paranoia.
		for round := 0; round < 64; round++ {
			changed := false
			for _, n := range comp {
				if s.analyze(n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return s
}

func (s *summaries) isObsPkg(pkg *types.Package) bool {
	return pkg != nil && pkg.Path() == s.prog.ModulePath+"/internal/obs"
}

// analyze recomputes one function against the current callee summaries
// and reports whether its own summary grew.
func (s *summaries) analyze(n *CGNode) bool {
	e := s.newEnv(n)
	for i := 0; i < 64; i++ {
		if !e.propagate() {
			break
		}
	}
	e.collect()
	return e.grew
}

// taintEnv is the per-function analysis state.
type taintEnv struct {
	s        *summaries
	n        *CGNode
	sum      *funcSummary
	state    map[types.Object]originMask
	paramIdx map[types.Object]int

	changed bool // state grew this propagate round
	grew    bool // summary grew this analyze call
	reports []taintReport
	seen    map[string]bool // report dedup within one collect
}

func (e *taintEnv) info() *types.Info { return e.n.Pkg.Info }

func (e *taintEnv) pos(p token.Pos) token.Position { return e.s.prog.Fset.Position(p) }

// propagate performs one flow-insensitive round over the body (function
// literals included, in the same flat state) and reports growth.
func (e *taintEnv) propagate() bool {
	e.changed = false
	ast.Inspect(e.n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
				m := e.exprMask(x.Rhs[0])
				for _, l := range x.Lhs {
					e.mark(l, m, x, false)
				}
				return true
			}
			for i, r := range x.Rhs {
				if i < len(x.Lhs) {
					e.mark(x.Lhs[i], e.exprMask(r), x, false)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 1 && len(x.Names) > 1 {
				m := e.exprMask(x.Values[0])
				for _, name := range x.Names {
					e.mark(name, m, x, false)
				}
				return true
			}
			for i, v := range x.Values {
				if i < len(x.Names) {
					e.mark(x.Names[i], e.exprMask(v), x, false)
				}
			}
		case *ast.RangeStmt:
			m := e.exprMask(x.X)
			if x.Key != nil {
				e.mark(x.Key, e.rangeKeyMask(x.X, m), x, false)
			}
			if x.Value != nil {
				e.mark(x.Value, m, x, false)
			}
		case *ast.CallExpr:
			e.applyCallEffects(x)
		}
		return true
	})
	return e.changed
}

// mark unions a mask into the object at the base of the written
// expression. Writing through a selector, index or dereference is a
// store into the object's referent: when that object is a parameter the
// flow is recorded in the summary so callers see it.
func (e *taintEnv) mark(target ast.Expr, m originMask, at ast.Node, store bool) {
	if m == 0 {
		return
	}
peel:
	for {
		switch x := target.(type) {
		case *ast.SelectorExpr:
			target, store = x.X, true
		case *ast.IndexExpr:
			target, store = x.X, true
		case *ast.StarExpr:
			target, store = x.X, true
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return
			}
			target = x.X
		case *ast.ParenExpr:
			target = x.X
		default:
			break peel
		}
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return
	}
	obj := e.info().Defs[id]
	if obj == nil {
		obj = e.info().Uses[id]
	}
	if obj == nil {
		return
	}
	// A //proram:public directive on the assignment declassifies.
	p := e.pos(at.Pos())
	if e.n.Pkg.directiveAt("public", p.Filename, p.Line) != nil {
		return
	}
	if old := e.state[obj]; old|m != old {
		e.state[obj] = old | m
		e.changed = true
	}
	if store {
		if i, ok := e.paramIdx[obj]; ok {
			if old := e.sum.paramFlows[i]; old|m != old {
				e.sum.paramFlows[i] |= m
				e.grew = true
			}
		}
	}
}

// rangeKeyMask refines the taint of a range key: over a slice, array,
// pointer-to-array or string the keys are the integers 0..len-1 —
// geometry, public by the same argument that sanitizes len and cap.
// Map keys and channel elements are data and carry the container's
// taint.
func (e *taintEnv) rangeKeyMask(x ast.Expr, m originMask) originMask {
	tv, ok := e.info().Types[x]
	if !ok || tv.Type == nil {
		return m
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array, *types.Basic:
		return 0
	}
	return m
}

// applyCallEffects models the stores a call performs in the caller's
// frame: the copy builtin, and the paramFlows of a resolved callee.
func (e *taintEnv) applyCallEffects(call *ast.CallExpr) {
	if name := builtinName(e.info(), call); name != "" {
		if name == "copy" && len(call.Args) == 2 {
			e.mark(call.Args[0], e.exprMask(call.Args[1]), call, true)
		}
		return
	}
	callee := e.resolveCallee(call)
	if callee == nil || e.s.isObsPkg(callee.Fn.Pkg()) {
		return
	}
	cs := e.s.byFunc[callee.Fn]
	argMasks, argExprs := e.callArgs(callee, call)
	for i, fl := range cs.paramFlows {
		if fl == 0 {
			continue
		}
		tr := translateMask(fl, argMasks)
		if tr == 0 {
			continue
		}
		for _, a := range argExprs[i] {
			e.mark(a, tr, call, true)
		}
	}
}

func (e *taintEnv) resolveCallee(call *ast.CallExpr) *CGNode {
	return e.s.prog.CallGraph().resolveCall(e.n.Pkg, call)
}

// callArgs aligns a call's arguments with the callee's receiver-first
// parameters: per parameter, the combined origin mask and the argument
// expressions (several for a variadic tail).
func (e *taintEnv) callArgs(callee *CGNode, call *ast.CallExpr) ([]originMask, [][]ast.Expr) {
	masks := make([]originMask, len(callee.Params))
	exprs := make([][]ast.Expr, len(callee.Params))
	off := 0
	if callee.Fn.Type().(*types.Signature).Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(callee.Params) > 0 {
			masks[0] = e.exprMask(sel.X)
			exprs[0] = append(exprs[0], sel.X)
		}
		off = 1
	}
	for k, a := range call.Args {
		i := off + k
		if callee.Variadic && i >= len(callee.Params)-1 {
			i = len(callee.Params) - 1
		}
		if i >= 0 && i < len(callee.Params) {
			masks[i] |= e.exprMask(a)
			exprs[i] = append(exprs[i], a)
		}
	}
	return masks, exprs
}

// exprMask reports the origins an expression's value may derive from.
func (e *taintEnv) exprMask(x ast.Expr) originMask {
	switch x := x.(type) {
	case nil:
		return 0
	case *ast.Ident:
		if obj := e.info().Uses[x]; obj != nil {
			return e.state[obj]
		}
		return 0
	case *ast.SelectorExpr:
		var m originMask
		if sel, ok := e.info().Selections[x]; ok && sel.Kind() == types.FieldVal {
			if e.s.prog.SecretFields[sel.Obj()] {
				m |= secretOrigin
			}
		}
		return m | e.exprMask(x.X)
	case *ast.IndexExpr:
		if tv, ok := e.info().Types[x.Index]; ok && tv.IsType() {
			return e.exprMask(x.X) // generic instantiation, not an index
		}
		return e.exprMask(x.X) | e.exprMask(x.Index)
	case *ast.SliceExpr:
		return e.exprMask(x.X)
	case *ast.StarExpr:
		return e.exprMask(x.X)
	case *ast.ParenExpr:
		return e.exprMask(x.X)
	case *ast.UnaryExpr:
		return e.exprMask(x.X)
	case *ast.BinaryExpr:
		return e.exprMask(x.X) | e.exprMask(x.Y)
	case *ast.TypeAssertExpr:
		return e.exprMask(x.X)
	case *ast.CompositeLit:
		var m originMask
		for _, el := range x.Elts {
			m |= e.exprMask(el)
		}
		return m
	case *ast.KeyValueExpr:
		return e.exprMask(x.Value)
	case *ast.CallExpr:
		return e.callMask(x)
	default:
		return 0
	}
}

func (e *taintEnv) callMask(call *ast.CallExpr) originMask {
	switch builtinName(e.info(), call) {
	case "len", "cap":
		// Block geometry is public by construction.
		return 0
	}
	if callee := e.resolveCallee(call); callee != nil && !e.s.isObsPkg(callee.Fn.Pkg()) {
		masks, _ := e.callArgs(callee, call)
		return translateMask(e.s.byFunc[callee.Fn].returnMask, masks)
	}
	// Conversions, builtins and unresolved calls: the old conservative
	// rule — tainted arguments taint the result.
	var m originMask
	for _, a := range call.Args {
		m |= e.exprMask(a)
	}
	return m
}

// collect runs the sink scan over the final state: local reports,
// parameter sink sets, return masks and rng construction sites.
func (e *taintEnv) collect() {
	e.reports = e.reports[:0]
	e.seen = make(map[string]bool)
	ast.Inspect(e.n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.IfStmt:
			e.checkCond(x.Cond, "if condition")
		case *ast.ForStmt:
			if x.Cond != nil {
				e.checkCond(x.Cond, "loop bound")
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				e.checkCond(x.Tag, "switch tag")
			}
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					for _, c := range cc.List {
						e.checkCond(c, "switch case")
					}
				}
			}
		case *ast.IndexExpr:
			if tv, ok := e.info().Types[x.Index]; !ok || !tv.IsType() {
				e.checkIndexSink(e.exprMask(x.Index), x.Index.Pos(), "memory index")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
				if bound != nil {
					e.checkIndexSink(e.exprMask(bound), bound.Pos(), "slice bound")
				}
			}
		case *ast.SendStmt:
			e.checkSchedSink(e.exprMask(x.Chan), x.Chan.Pos(), "channel send target")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				e.checkSchedSink(e.exprMask(x.X), x.X.Pos(), "channel receive source")
			}
		case *ast.GoStmt:
			e.checkSchedSink(e.exprMask(x.Call.Fun), x.Call.Fun.Pos(), "goroutine spawn target")
		case *ast.CallExpr:
			e.checkCall(x)
		}
		return true
	})

	// Returns. Function-literal returns are the literal's, not ours.
	ast.Inspect(e.n.Decl.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if ret, ok := x.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				e.foldReturn(e.exprMask(r))
			}
		}
		return true
	})
	if res := e.n.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := e.info().Defs[name]; obj != nil {
					e.foldReturn(e.state[obj])
				}
			}
		}
	}

	if len(e.reports) > 0 || len(e.sum.reports) > 0 {
		e.sum.reports = append(e.sum.reports[:0], e.reports...)
	}
}

func (e *taintEnv) foldReturn(m originMask) {
	if old := e.sum.returnMask; old|m != old {
		e.sum.returnMask |= m
		e.grew = true
	}
}

func (e *taintEnv) report(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d\x00%s", pos, msg)
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.reports = append(e.reports, taintReport{pos: pos, msg: msg})
}

// addParamSink records that the parameters in m reach a sink. The dedup
// key deliberately ignores the via chain: recursive cycles would
// otherwise regrow the chain forever, and the first (shortest) chain is
// the most readable one anyway.
func (e *taintEnv) addParamSink(m originMask, what string, pos token.Pos, via string) {
	for i := range e.sum.paramSinks {
		if m&paramBit(i) == 0 || paramBit(i) == opaqueOrigin {
			continue
		}
		dup := false
		for _, sr := range e.sum.paramSinks[i] {
			if sr.what == what && sr.pos == pos {
				dup = true
				break
			}
		}
		if !dup {
			e.sum.paramSinks[i] = append(e.sum.paramSinks[i], sinkRef{what: what, pos: pos, via: via})
			e.grew = true
		}
	}
}

func (e *taintEnv) addRngSite(pos token.Pos, m originMask, via string) {
	for i := range e.sum.rngSites {
		if e.sum.rngSites[i].pos == pos && e.sum.rngSites[i].via == via {
			if old := e.sum.rngSites[i].mask; old|m != old {
				e.sum.rngSites[i].mask |= m
				e.grew = true
			}
			return
		}
	}
	e.sum.rngSites = append(e.sum.rngSites, rngSite{pos: pos, mask: m, via: via})
	e.grew = true
}

// declassified reports whether a //proram:public directive covers the
// position.
func (e *taintEnv) declassified(pos token.Pos) bool {
	p := e.pos(pos)
	return e.n.Pkg.directiveAt("public", p.Filename, p.Line) != nil
}

func (e *taintEnv) checkCond(cond ast.Expr, what string) {
	m := e.exprMask(cond)
	if m == 0 || e.declassified(cond.Pos()) {
		return
	}
	if m&secretOrigin != 0 {
		e.report(cond.Pos(), fmt.Sprintf("%s depends on secret block payload bytes; the resulting access pattern leaks data (declassify with //proram:public only if the value is public by protocol)", what))
	}
	e.addParamSink(m, what, cond.Pos(), "")
}

// checkIndexSink is the secret-index sink: a secret-derived slice,
// array or map index (or slice bound) selects which addresses are
// touched — the classic ORAM access-pattern leak.
func (e *taintEnv) checkIndexSink(m originMask, pos token.Pos, what string) {
	if m == 0 || e.declassified(pos) {
		return
	}
	if m&secretOrigin != 0 {
		e.report(pos, fmt.Sprintf("%s depends on secret block payload bytes; a secret-derived index decides which addresses are touched (declassify with //proram:public only if the value is public by protocol)", what))
	}
	e.addParamSink(m, what, pos, "")
}

// checkSchedSink is the scheduling sink: a secret-derived value that
// decides which channel is touched, whether and what a goroutine runs,
// or which lock is taken makes the scheduler an observable channel —
// contention and interleaving are visible off-chip as timing, exactly
// like a secret-derived memory index.
func (e *taintEnv) checkSchedSink(m originMask, pos token.Pos, what string) {
	if m == 0 || e.declassified(pos) {
		return
	}
	if m&secretOrigin != 0 {
		e.report(pos, fmt.Sprintf("%s depends on secret block payload bytes; secret-dependent scheduling is observable as timing and interleaving (declassify with //proram:public only if the value is public by protocol)", what))
	}
	e.addParamSink(m, what, pos, "")
}

// checkCall handles the call-shaped sinks: observability emissions,
// sinks inherited from a resolved callee's summary, lock-acquisition
// scheduling sinks, and rng construction sites for the seedplumbing
// pass.
func (e *taintEnv) checkCall(call *ast.CallExpr) {
	e.checkObsEmission(call)
	e.checkRNGSite(call)

	if recv, method, ok := syncMethodCall(e.info(), call); ok {
		switch method {
		case "Lock", "RLock", "TryLock", "TryRLock":
			e.checkSchedSink(e.exprMask(recv), recv.Pos(), "lock acquisition target")
		}
	}

	callee := e.resolveCallee(call)
	if callee == nil || e.s.isObsPkg(callee.Fn.Pkg()) {
		return
	}
	cs := e.s.byFunc[callee.Fn]
	masks, exprs := e.callArgs(callee, call)
	for i := range cs.paramSinks {
		if len(cs.paramSinks[i]) == 0 {
			continue
		}
		for _, sr := range cs.paramSinks[i] {
			via := callee.Name()
			if sr.via != "" {
				via += " → " + sr.via
			}
			for _, a := range exprs[i] {
				am := e.exprMask(a)
				if am == 0 || e.declassified(a.Pos()) {
					continue
				}
				if am&secretOrigin != 0 {
					e.report(a.Pos(), fmt.Sprintf(
						"secret block payload bytes flow into parameter %q of %s and reach a %s at %s (declassify with //proram:public only if the value is public by protocol)",
						paramName(callee, i), via, sr.what, e.s.prog.relPosition(sr.pos)))
				}
				e.addParamSink(am, sr.what, sr.pos, via)
			}
		}
	}

	// Inherit the callee's rng sites. Sites already reported at an
	// exported constructor are not re-reported at its callers; opaque
	// derivations stop here (they cannot be traced further up).
	for _, site := range cs.rngSites {
		if site.mask == 0 && isExportedConstructor(callee) {
			continue
		}
		if site.mask&opaqueOrigin != 0 {
			continue
		}
		if callee.SCC == e.n.SCC {
			continue // recursion: the cycle already owns the site
		}
		via := callee.Name()
		if site.via != "" {
			via += " → " + site.via
		}
		e.addRngSite(call.Pos(), translateMask(site.mask, masks), via)
	}
}

func paramName(n *CGNode, i int) string {
	if i >= 0 && i < len(n.Params) && n.Params[i].Name() != "" {
		return n.Params[i].Name()
	}
	return fmt.Sprintf("#%d", i)
}

// isExportedConstructor mirrors the seedplumbing reporting gate.
func isExportedConstructor(n *CGNode) bool {
	name := n.Fn.Name()
	return n.Fn.Type().(*types.Signature).Recv() == nil && ast.IsExported(name) && len(name) >= 3 && name[:3] == "New"
}

func (e *taintEnv) checkObsEmission(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := e.info().Uses[sel.Sel].(*types.Func)
	if !ok || !e.s.isObsPkg(fn.Pkg()) {
		return
	}
	for _, arg := range call.Args {
		m := e.exprMask(arg)
		// A view (rec.Counter(name, func() uint64 {...})) emits what the
		// literal returns, whenever the export runs.
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if ret, ok := x.(*ast.ReturnStmt); ok {
					for _, r := range ret.Results {
						m |= e.exprMask(r)
					}
				}
				return true
			})
		}
		if m == 0 || e.declassified(arg.Pos()) {
			continue
		}
		if m&secretOrigin != 0 {
			e.report(arg.Pos(), "observability emission argument depends on secret block payload bytes; metrics and traces are exported off-chip (declassify with //proram:public only if the value is public by protocol)")
		}
		e.addParamSink(m, "observability emission", arg.Pos(), "")
	}
}

// checkRNGSite records direct rng.New construction. A site suppressed
// by //proram:allow seedplumbing at the call is consumed here so the
// suppression is honored even when the site would surface in a caller.
func (e *taintEnv) checkRNGSite(call *ast.CallExpr) {
	pkgPath, fname := calleePackageFunc(e.info(), call)
	if pkgPath != e.s.prog.ModulePath+"/internal/rng" || fname != "New" || len(call.Args) != 1 {
		return
	}
	p := e.pos(call.Pos())
	if d := e.n.Pkg.allowDirectiveFor("seedplumbing", p.Filename, p.Line); d != nil {
		d.used = true
		return
	}
	e.addRngSite(call.Pos(), e.exprMask(call.Args[0]), "")
}
