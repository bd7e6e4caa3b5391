package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strings"
)

// This file is the value-range layer on top of the SSA view in ssa.go:
// a saturating int64 interval per SSA value (abstract interpretation
// with widening at phis), plus a relational fact system — difference
// constraints "a ≤ b + c" over SSA values, len() terms and a constant
// anchor, harvested from dominating branch edges, executed indexings
// (the `_ = s[n-1]` pin pattern) and range-loop bindings, and closed
// with a small Bellman–Ford. Secret/parameter dependence is answered by
// the taint summaries (summary.go) through maskEnv, so the interval
// side stays purely about magnitudes.
//
// Soundness notes. Finite interval endpoints are capped at ±2^62: any
// computation that could exceed the cap saturates to ±inf, so signed
// overflow never produces a false finite claim; results of typed
// arithmetic that leave the type's range fall back to the full type
// range (wraparound). Relational facts name SSA value ids, whose
// runtime binding is immutable per execution of the definition — a fact
// is therefore only used at B when, for every value it names that is
// defined inside a loop containing B, the fact site is inside that loop
// too (then definition, fact and use are ordered within one iteration
// and the binding cannot have changed in between). Field-path terms
// (w.padTo) are allowed only through non-pointer struct chains rooted
// at a tracked local with no field stores, where no aliasing exists.

const (
	negInf   = math.MinInt64
	posInf   = math.MaxInt64
	satLimit = int64(1) << 62
)

// interval is a saturating [lo, hi] over int64; negInf/posInf endpoints
// mean unbounded. bottomInterval (lo > hi) is the empty starting point
// of the fixpoint.
type interval struct{ lo, hi int64 }

var (
	topInterval    = interval{negInf, posInf}
	bottomInterval = interval{posInf, negInf}
)

func (iv interval) empty() bool { return iv.lo > iv.hi }

// String renders the interval for diagnostics: "[0, 255]", "[1, +inf]".
func (iv interval) String() string {
	if iv.empty() {
		return "[unreachable]"
	}
	lo, hi := "-inf", "+inf"
	if iv.lo != negInf {
		lo = fmt.Sprintf("%d", iv.lo)
	}
	if iv.hi != posInf {
		hi = fmt.Sprintf("%d", iv.hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

func joinInterval(a, b interval) interval {
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	return interval{min(a.lo, b.lo), max(a.hi, b.hi)}
}

func satVal(x int64) int64 {
	if x > satLimit {
		return posInf
	}
	if x < -satLimit {
		return negInf
	}
	return x
}

func isInf(x int64) bool { return x == negInf || x == posInf }

func satAdd(a, b int64) int64 {
	if a == posInf || b == posInf {
		return posInf
	}
	if a == negInf || b == negInf {
		return negInf
	}
	return satVal(a + b) // non-inf magnitudes are ≤ satLimit, no overflow
}

func satNeg(a int64) int64 {
	switch a {
	case posInf:
		return negInf
	case negInf:
		return posInf
	}
	return -a
}

func satSub(a, b int64) int64 { return satAdd(a, satNeg(b)) }

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if isInf(a) || isInf(b) {
		if (a > 0) == (b > 0) {
			return posInf
		}
		return negInf
	}
	p := a * b
	if p/a != b {
		if (a > 0) == (b > 0) {
			return posInf
		}
		return negInf
	}
	return satVal(p)
}

func addI(a, b interval) interval { return interval{satAdd(a.lo, b.lo), satAdd(a.hi, b.hi)} }
func subI(a, b interval) interval { return interval{satSub(a.lo, b.hi), satSub(a.hi, b.lo)} }

func mulI(a, b interval) interval {
	c := []int64{satMul(a.lo, b.lo), satMul(a.lo, b.hi), satMul(a.hi, b.lo), satMul(a.hi, b.hi)}
	out := interval{c[0], c[0]}
	for _, x := range c[1:] {
		out.lo, out.hi = min(out.lo, x), max(out.hi, x)
	}
	return out
}

// binopInterval evaluates one arithmetic/logic operator over intervals.
// Operators it cannot bound return topInterval; callers clamp to the
// expression's type range.
func binopInterval(op token.Token, a, b interval) interval {
	if a.empty() || b.empty() {
		return bottomInterval
	}
	switch op {
	case token.ADD:
		return addI(a, b)
	case token.SUB:
		return subI(a, b)
	case token.MUL:
		return mulI(a, b)
	case token.QUO:
		if b.lo >= 1 {
			// Truncation toward zero keeps the result between the
			// operand and zero.
			return interval{min(a.lo, 0), max(a.hi, 0)}
		}
	case token.REM:
		if b.lo >= 1 {
			hi := satSub(b.hi, 1)
			if a.lo >= 0 {
				return interval{0, min(hi, max(a.hi, 0))}
			}
			return interval{satNeg(hi), hi}
		}
	case token.AND:
		if a.lo >= 0 && b.lo >= 0 {
			return interval{0, min(a.hi, b.hi)}
		}
		if a.lo >= 0 {
			return interval{0, a.hi}
		}
		if b.lo >= 0 {
			return interval{0, b.hi}
		}
	case token.AND_NOT:
		if a.lo >= 0 {
			return interval{0, a.hi}
		}
	case token.OR, token.XOR:
		if a.lo >= 0 && b.lo >= 0 {
			return interval{0, pow2Ceil(max(a.hi, b.hi))}
		}
	case token.SHL:
		if a.lo >= 0 && b.lo >= 0 {
			return interval{satShl(a.lo, b.lo), satShl(a.hi, b.hi)}
		}
	case token.SHR:
		if a.lo >= 0 && b.lo >= 0 {
			lo := int64(0)
			if !isInf(a.lo) && !isInf(b.hi) && b.hi < 63 {
				lo = a.lo >> uint(b.hi)
			}
			hi := a.hi
			if !isInf(a.hi) && !isInf(b.lo) && b.lo < 63 {
				hi = a.hi >> uint(b.lo)
			}
			return interval{lo, hi}
		}
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ, token.LAND, token.LOR:
		return interval{0, 1}
	}
	return topInterval
}

// pow2Ceil returns 2^ceil(log2(x+1))-1: the smallest all-ones bound
// covering every bit pattern up to x.
func pow2Ceil(x int64) int64 {
	if x <= 0 {
		return 0
	}
	if isInf(x) || x >= satLimit {
		return posInf
	}
	p := int64(1)
	for p-1 < x {
		p <<= 1
	}
	return p - 1
}

func satShl(a, shift int64) int64 {
	if a == 0 {
		return 0
	}
	if isInf(a) || isInf(shift) || shift >= 62 {
		return posInf
	}
	return satVal(a << uint(shift))
}

// typeInterval is the value range implied by a type alone. int and
// int64 map to the full interval (our ±inf endpoints coincide with
// their true range, so no finite claim is lost).
func typeInterval(t types.Type) interval {
	if t == nil {
		return topInterval
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return topInterval
	}
	switch b.Kind() {
	case types.Bool, types.UntypedBool:
		return interval{0, 1}
	case types.Int8:
		return interval{math.MinInt8, math.MaxInt8}
	case types.Int16:
		return interval{math.MinInt16, math.MaxInt16}
	case types.Int32:
		return interval{math.MinInt32, math.MaxInt32}
	case types.Uint8:
		return interval{0, math.MaxUint8}
	case types.Uint16:
		return interval{0, math.MaxUint16}
	case types.Uint32:
		return interval{0, math.MaxUint32}
	case types.Uint, types.Uint64, types.Uintptr:
		// Values above 2^62 conflate with +inf; only the lower bound is
		// a finite claim, which is the sound direction.
		return interval{0, posInf}
	}
	return topInterval
}

func zeroInterval(t types.Type) interval {
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
		return interval{0, 0}
	}
	return topInterval
}

// clampOrType intersects a computed interval with the type's range; a
// result that left the range means the operation may have wrapped, so
// the whole type range is all that can be claimed.
func clampOrType(r interval, t types.Type) interval {
	tr := typeInterval(t)
	if r.empty() {
		return r
	}
	if r.lo < tr.lo || r.hi > tr.hi {
		return tr
	}
	return r
}

// vrangeFunc is the computed value-range view of one function.
type vrangeFunc struct {
	prog *Program
	fn   *ssaFunc
	env  *taintEnv // mask oracle
	iv   []interval

	loopMemo map[int]map[int]bool // natural loop cache, per head
	heads    []int                // blocks with an incoming back edge
}

// valueRange returns (building and caching on first use) the
// value-range view of a declared function.
func (p *Program) valueRange(n *CGNode) *vrangeFunc {
	if v, ok := p.vrMemo[n]; ok {
		return v
	}
	v := &vrangeFunc{prog: p, fn: buildSSA(n.Pkg, n.Decl), env: p.taintSummaries().maskEnv(n)}
	v.compute()
	v.findHeads()
	if p.vrMemo == nil {
		p.vrMemo = make(map[*CGNode]*vrangeFunc)
	}
	p.vrMemo[n] = v
	return v
}

// maskOf reports the origin mask of an expression (secret bit, opaque
// bit, parameter bits).
func (v *vrangeFunc) maskOf(e ast.Expr) originMask { return v.env.exprMask(e) }

// compute runs the interval fixpoint. Joins are monotone (new results
// are joined with the old) and phis widen after a few rounds, so the
// iteration terminates; every cycle in the SSA value graph passes
// through a phi.
func (v *vrangeFunc) compute() {
	const widenRound = 8
	v.iv = make([]interval, len(v.fn.vals))
	for i := range v.iv {
		v.iv[i] = bottomInterval
	}
	for round := 0; round < 64; round++ {
		changed := false
		for _, val := range v.fn.vals {
			nv := v.evalValue(val)
			old := v.iv[val.id]
			nv = joinInterval(old, nv)
			if nv != old {
				if round >= widenRound && val.kind == ssaPhi {
					if nv.lo < old.lo {
						nv.lo = negInf
					}
					if nv.hi > old.hi {
						nv.hi = posInf
					}
					nv = clampOrType(nv, val.obj.Type())
					nv = joinInterval(old, nv)
				}
				if nv != old {
					v.iv[val.id] = nv
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

func (v *vrangeFunc) evalValue(val *ssaValue) interval {
	var r interval
	switch val.kind {
	case ssaParam, ssaOpaque, ssaRangeVal:
		r = typeInterval(val.obj.Type())
	case ssaZero:
		r = zeroInterval(val.obj.Type())
	case ssaExpr:
		if val.nres > 1 {
			r = typeInterval(val.obj.Type())
		} else {
			r = v.evalExpr(val.expr)
		}
	case ssaStep:
		prev := topInterval
		if val.operand >= 0 {
			prev = v.iv[val.operand]
		}
		rhs := interval{1, 1}
		if val.expr != nil {
			rhs = v.evalExpr(val.expr)
		}
		r = binopInterval(val.op, prev, rhs)
	case ssaPhi:
		// Bottom args are not-yet-computed rounds of the fixpoint, not
		// unknowns: joining them keeps the phi empty until an argument
		// lands a value. Only a missing def (-1) is a true unknown.
		r = bottomInterval
		for _, a := range val.phiArgs {
			if a >= 0 {
				r = joinInterval(r, v.iv[a])
			} else {
				r = joinInterval(r, typeInterval(val.obj.Type()))
			}
		}
	case ssaRangeKey:
		r = v.rangeKeyInterval(val.expr)
	}
	return clampOrType(r, val.obj.Type())
}

// rangeKeyInterval bounds the key binding of a range loop by its
// container: [0, N-1] over an array, [0, n-1] over an integer, [0,
// +inf] over slices and strings.
func (v *vrangeFunc) rangeKeyInterval(container ast.Expr) interval {
	t := typeOf(v.fn.info(), container)
	if t == nil {
		return topInterval
	}
	switch u := deref(t).(type) {
	case *types.Array:
		return interval{0, u.Len() - 1}
	case *types.Slice:
		return interval{0, posInf}
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return interval{0, posInf}
		}
		if u.Info()&types.IsInteger != 0 {
			n := v.evalExpr(container)
			return interval{0, max(satSub(n.hi, 1), 0)}
		}
	case *types.Map:
		return typeInterval(u.Key())
	}
	return topInterval
}

// evalExpr computes the interval of an expression at its use point,
// resolving identifier reads through the SSA view.
func (v *vrangeFunc) evalExpr(e ast.Expr) interval {
	info := v.fn.info()
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if c, ok := exactInt64(tv.Value); ok {
			return interval{satVal(c), satVal(c)}
		}
		return typeInterval(tv.Type)
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return v.evalExpr(x.X)
	case *ast.Ident:
		if id, ok := v.fn.useOf[x]; ok {
			return v.iv[id]
		}
	case *ast.BinaryExpr:
		r := binopInterval(x.Op, v.evalExpr(x.X), v.evalExpr(x.Y))
		return clampOrType(r, typeOf(info, e))
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			r := v.evalExpr(x.X)
			return clampOrType(interval{satNeg(r.hi), satNeg(r.lo)}, typeOf(info, e))
		case token.ADD:
			return v.evalExpr(x.X)
		case token.NOT:
			return interval{0, 1}
		}
	case *ast.CallExpr:
		return v.evalCall(x)
	}
	return typeInterval(typeOf(info, e))
}

func (v *vrangeFunc) evalCall(call *ast.CallExpr) interval {
	info := v.fn.info()
	switch name := builtinName(info, call); name {
	case "len", "cap":
		if len(call.Args) == 1 {
			if arr, ok := deref(typeOf(info, call.Args[0])).(*types.Array); ok {
				return interval{arr.Len(), arr.Len()}
			}
		}
		return interval{0, posInf}
	case "min", "max":
		if len(call.Args) == 0 {
			break
		}
		r := v.evalExpr(call.Args[0])
		for _, a := range call.Args[1:] {
			ai := v.evalExpr(a)
			if name == "min" {
				r = interval{min(r.lo, ai.lo), min(r.hi, ai.hi)}
			} else {
				r = interval{max(r.lo, ai.lo), max(r.hi, ai.hi)}
			}
		}
		return r
	}
	// Conversion T(x): the result stays in T's range; when the operand
	// provably fits, no wrap occurs and the operand's range carries over.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		tr := typeInterval(tv.Type)
		r := v.evalExpr(call.Args[0])
		if !r.empty() && r.lo >= tr.lo && r.hi <= tr.hi {
			return r
		}
		return tr
	}
	return typeInterval(typeOf(info, call))
}

func exactInt64(val constant.Value) (int64, bool) {
	return constant.Int64Val(constant.ToInt(val))
}

// --- Relational facts -------------------------------------------------

// vterm is one node of the difference-constraint graph: the constant
// anchor (vid -1), an SSA value, its len(), or a field path rooted at
// an SSA value through non-pointer structs.
type vterm struct {
	vid  int
	len  bool
	path string
}

var zTerm = vterm{vid: -1}

// vfact is one difference constraint: a ≤ b + w.
type vfact struct {
	a, b vterm
	w    int64
}

// guardFact is an in-node guard: inside the right operand of && the
// left operand is known true (false for ||).
type guardFact struct {
	cond  ast.Expr
	sense bool
}

// findHeads records every loop head (block with an incoming back edge).
func (v *vrangeFunc) findHeads() {
	for _, b := range v.fn.cfg.blocks {
		if !v.fn.reach[b.index] {
			continue
		}
		for _, p := range v.fn.preds[b.index] {
			if v.fn.dominates(b.index, p) {
				v.heads = append(v.heads, b.index)
				break
			}
		}
	}
}

func (v *vrangeFunc) loopOf(head int) map[int]bool {
	if v.loopMemo == nil {
		v.loopMemo = make(map[int]map[int]bool)
	}
	if l, ok := v.loopMemo[head]; ok {
		return l
	}
	l := v.fn.loopBlocks(head)
	v.loopMemo[head] = l
	return l
}

// factValidAt reports whether a fact recorded in block factBlk may be
// used in block useBlk: for every loop containing useBlk that also
// contains the definition of a value the fact names, the fact site must
// be inside that loop as well (see the soundness note at the top of the
// file).
func (v *vrangeFunc) factValidAt(f vfact, factBlk, useBlk int) bool {
	for _, t := range []vterm{f.a, f.b} {
		if t.vid < 0 {
			continue
		}
		def := v.fn.vals[t.vid].block
		for _, h := range v.heads {
			l := v.loopOf(h)
			if l[useBlk] && l[def] && !l[factBlk] {
				return false
			}
		}
	}
	return true
}

// factsAt harvests the difference constraints that hold before node
// nodeIdx of block blk: facts from earlier nodes of the block, from
// every dominator block's nodes, from the branch edges between
// consecutive dominators (valid when the chain block is the
// single-predecessor successor of its immediate dominator), from range
// bindings, and from the caller-supplied short-circuit guards.
func (v *vrangeFunc) factsAt(blk, nodeIdx int, guards []guardFact) []vfact {
	var facts []vfact
	cur := blk
	add := func(factBlk int) func(vfact) {
		return func(f vfact) {
			if v.factValidAt(f, factBlk, blk) {
				facts = append(facts, f)
			}
		}
	}
	seen := make(map[int]bool)
	first := true
	for {
		if seen[cur] {
			break
		}
		seen[cur] = true
		b := v.fn.cfg.blocks[cur]
		limit := len(b.nodes)
		if first {
			limit = min(limit, nodeIdx)
		}
		for i := 0; i < limit; i++ {
			v.nodeFacts(b.nodes[i], add(cur))
		}
		if b.rangeLoop != nil {
			v.rangeFacts(b, add(cur))
		}
		if cur == v.fn.idom[cur] || v.fn.idom[cur] < 0 {
			break
		}
		d := v.fn.idom[cur]
		dblk := v.fn.cfg.blocks[d]
		if len(v.fn.preds[cur]) == 1 && v.fn.preds[cur][0] == d && dblk.branchCond != nil {
			if dblk.branchTrue != nil && dblk.branchTrue.index == cur {
				v.condFacts(dblk.branchCond, true, add(d))
			} else if dblk.branchFalse != nil && dblk.branchFalse.index == cur {
				v.condFacts(dblk.branchCond, false, add(d))
			}
		}
		first = false
		cur = d
	}
	for _, g := range guards {
		v.condFacts(g.cond, g.sense, add(blk))
	}
	return facts
}

// nodeFacts extracts index-success and slice-success facts from one
// executed node: s[i] completing implies 0 ≤ i ≤ len(s)-1, s[a:b]
// implies a ≤ b ≤ len(s). Function literals and the right operands of
// short-circuit operators (which may not have executed) are skipped.
func (v *vrangeFunc) nodeFacts(n ast.Node, add func(vfact)) {
	info := v.fn.info()
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.BinaryExpr:
				if x.Op == token.LAND || x.Op == token.LOR {
					walk(x.X)
					return false
				}
			case *ast.IndexExpr:
				if tv, ok := info.Types[x.Index]; ok && tv.IsType() {
					return true
				}
				ct, it, ok := v.indexTerms(x)
				if !ok {
					return true
				}
				// 0 ≤ i and i ≤ len(s) - 1.
				add(vfact{a: zTerm, b: it.t, w: it.off})
				add(vfact{a: it.t, b: ct, w: -1 - it.off})
			case *ast.SliceExpr:
				v.sliceFacts(x, add)
			}
			return true
		})
	}
	walk(n)
}

// offTerm is a canonicalized expression: term + offset.
type offTerm struct {
	t   vterm
	off int64
}

// indexTerms canonicalizes the container and index of a slice/string
// indexing; arrays are handled separately by the boundscheck pass
// (their bound comes from the type, not from a term).
func (v *vrangeFunc) indexTerms(x *ast.IndexExpr) (vterm, offTerm, bool) {
	info := v.fn.info()
	switch deref(typeOf(info, x.X)).(type) {
	case *types.Slice:
	case *types.Basic: // string indexing
		if b, ok := deref(typeOf(info, x.X)).(*types.Basic); !ok || b.Info()&types.IsString == 0 {
			return vterm{}, offTerm{}, false
		}
	default:
		return vterm{}, offTerm{}, false
	}
	ct, coff, ok := v.canon(x.X, 0)
	if !ok || coff != 0 || ct.len || ct.vid < 0 {
		return vterm{}, offTerm{}, false
	}
	it, ioff, ok := v.canon(x.Index, 0)
	if !ok {
		return vterm{}, offTerm{}, false
	}
	return vterm{vid: ct.vid, len: true, path: ct.path}, offTerm{it, ioff}, true
}

func (v *vrangeFunc) sliceFacts(x *ast.SliceExpr, add func(vfact)) {
	info := v.fn.info()
	if _, ok := deref(typeOf(info, x.X)).(*types.Slice); !ok {
		return
	}
	ct, coff, ok := v.canon(x.X, 0)
	if !ok || coff != 0 || ct.len || ct.vid < 0 {
		return
	}
	lenT := vterm{vid: ct.vid, len: true, path: ct.path}
	bound := func(e ast.Expr) (offTerm, bool) {
		if e == nil {
			return offTerm{}, false
		}
		t, off, ok := v.canon(e, 0)
		return offTerm{t, off}, ok
	}
	if hi, ok := bound(x.High); ok {
		add(vfact{a: hi.t, b: lenT, w: -hi.off}) // hi ≤ len(s)
		if lo, ok := bound(x.Low); ok {
			add(vfact{a: lo.t, b: hi.t, w: hi.off - lo.off}) // lo ≤ hi
		}
	}
	if lo, ok := bound(x.Low); ok {
		add(vfact{a: zTerm, b: lo.t, w: lo.off}) // 0 ≤ lo
		add(vfact{a: lo.t, b: lenT, w: -lo.off}) // lo ≤ len(s)
	}
}

// rangeFacts adds the bounds of a range key binding: over a slice,
// array or string the key stays below the container's length; over an
// integer n it stays below n.
func (v *vrangeFunc) rangeFacts(head *cfgBlock, add func(vfact)) {
	kid, ok := v.fn.rangeKey[head.index]
	if !ok {
		return
	}
	x := head.rangeLoop.X
	keyT := vterm{vid: kid}
	add(vfact{a: zTerm, b: keyT, w: 0}) // 0 ≤ key
	info := v.fn.info()
	switch u := deref(typeOf(info, x)).(type) {
	case *types.Slice:
		if ct, coff, ok := v.canon(x, 0); ok && coff == 0 && !ct.len && ct.vid >= 0 {
			add(vfact{a: keyT, b: vterm{vid: ct.vid, len: true, path: ct.path}, w: -1})
		}
	case *types.Array:
		add(vfact{a: keyT, b: zTerm, w: u.Len() - 1})
	case *types.Basic:
		if u.Info()&types.IsInteger != 0 {
			if nt, noff, ok := v.canon(x, 0); ok {
				add(vfact{a: keyT, b: nt, w: noff - 1}) // key ≤ n-1
			}
		}
	}
}

// condFacts decomposes a comparison (under the given truth sense) into
// difference constraints. Only integer comparisons contribute.
func (v *vrangeFunc) condFacts(cond ast.Expr, sense bool, add func(vfact)) {
	cond = ast.Unparen(cond)
	switch x := cond.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			v.condFacts(x.X, !sense, add)
		}
		return
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if sense {
				v.condFacts(x.X, true, add)
				v.condFacts(x.Y, true, add)
			}
			return
		case token.LOR:
			if !sense {
				v.condFacts(x.X, false, add)
				v.condFacts(x.Y, false, add)
			}
			return
		}
		// Only integer-typed comparisons produce magnitude facts.
		info := v.fn.info()
		if !isIntegerType(typeOf(info, x.X)) || !isIntegerType(typeOf(info, x.Y)) {
			return
		}
		at, aoff, ok := v.canon(x.X, 0)
		if !ok {
			return
		}
		bt, boff, ok := v.canon(x.Y, 0)
		if !ok {
			return
		}
		// a+aoff OP b+boff, i.e. at OP bt + (boff-aoff).
		d := boff - aoff
		le := func(p vterm, q vterm, w int64) { add(vfact{a: p, b: q, w: w}) }
		op := x.Op
		if !sense {
			switch op {
			case token.LSS:
				op = token.GEQ
			case token.LEQ:
				op = token.GTR
			case token.GTR:
				op = token.LEQ
			case token.GEQ:
				op = token.LSS
			case token.EQL:
				return // != carries no magnitude fact
			case token.NEQ:
				op = token.EQL
			default:
				return
			}
		}
		switch op {
		case token.LSS: // at < bt + d
			le(at, bt, d-1)
		case token.LEQ:
			le(at, bt, d)
		case token.GTR: // at > bt + d  ⇒  bt ≤ at - d - 1
			le(bt, at, -d-1)
		case token.GEQ:
			le(bt, at, -d)
		case token.EQL:
			le(at, bt, d)
			le(bt, at, -d)
		}
	}
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// canon reduces an expression (at a use point whose identifiers are
// SSA-resolved) to term + offset, following single-definition chains:
// n := len(s) canonicalizes to len(s's version), i++ chains fold into
// offsets, and value-struct field paths become path terms.
func (v *vrangeFunc) canon(e ast.Expr, depth int) (vterm, int64, bool) {
	if depth > 8 {
		return vterm{}, 0, false
	}
	e = ast.Unparen(e)
	info := v.fn.info()
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if c, ok := exactInt64(tv.Value); ok && c > -satLimit && c < satLimit {
			return zTerm, c, true
		}
		return vterm{}, 0, false
	}
	switch x := e.(type) {
	case *ast.Ident:
		id, ok := v.fn.useOf[x]
		if !ok {
			return vterm{}, 0, false
		}
		return v.canonVal(id, depth)
	case *ast.BinaryExpr:
		if x.Op == token.ADD || x.Op == token.SUB {
			if c, ok := v.constOf(x.Y); ok {
				if t, off, ok2 := v.canon(x.X, depth+1); ok2 {
					if x.Op == token.SUB {
						c = -c
					}
					return t, off + c, true
				}
			}
			if x.Op == token.ADD {
				if c, ok := v.constOf(x.X); ok {
					if t, off, ok2 := v.canon(x.Y, depth+1); ok2 {
						return t, off + c, true
					}
				}
			}
		}
	case *ast.CallExpr:
		if builtinName(info, x) == "len" && len(x.Args) == 1 {
			if t, off, ok := v.canon(x.Args[0], depth+1); ok && off == 0 && !t.len && t.vid >= 0 {
				return vterm{vid: t.vid, len: true, path: t.path}, 0, true
			}
		}
	case *ast.SelectorExpr:
		return v.canonPath(x)
	}
	return vterm{}, 0, false
}

// canonVal canonicalizes through an SSA value's definition; every value
// is at worst its own term.
func (v *vrangeFunc) canonVal(id, depth int) (vterm, int64, bool) {
	val := v.fn.vals[id]
	switch val.kind {
	case ssaExpr:
		if val.nres == 1 && depth <= 8 {
			if t, off, ok := v.canon(val.expr, depth+1); ok {
				return t, off, true
			}
		}
	case ssaStep:
		if (val.op == token.ADD || val.op == token.SUB) && val.operand >= 0 && depth <= 8 {
			c, ok := int64(1), true
			if val.expr != nil {
				c, ok = v.constOf(val.expr)
			}
			if ok {
				if t, off, ok2 := v.canonVal(val.operand, depth+1); ok2 {
					if val.op == token.SUB {
						c = -c
					}
					return t, off + c, true
				}
			}
		}
	}
	return vterm{vid: id}, 0, true
}

// canonPath canonicalizes a field chain a.b.c rooted at a tracked local
// of value-struct type with no field stores: with no pointers anywhere
// in the chain there is no aliasing, so the path is as immutable as the
// root's SSA version.
func (v *vrangeFunc) canonPath(sel *ast.SelectorExpr) (vterm, int64, bool) {
	info := v.fn.info()
	var names []string
	e := ast.Expr(sel)
	for {
		s, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		ss, ok := info.Selections[s]
		if !ok || ss.Kind() != types.FieldVal {
			return vterm{}, 0, false
		}
		if _, ok := typeOf(info, s.X).Underlying().(*types.Struct); !ok {
			return vterm{}, 0, false
		}
		names = append([]string{s.Sel.Name}, names...)
		e = ast.Unparen(s.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return vterm{}, 0, false
	}
	vid, ok := v.fn.useOf[id]
	if !ok {
		return vterm{}, 0, false
	}
	if obj := info.Uses[id]; obj == nil || v.fn.written[obj] {
		return vterm{}, 0, false
	}
	return vterm{vid: vid, path: strings.Join(names, ".")}, 0, true
}

func (v *vrangeFunc) constOf(e ast.Expr) (int64, bool) {
	if tv, ok := v.fn.info().Types[e]; ok && tv.Value != nil {
		if c, ok := exactInt64(tv.Value); ok && c > -satLimit && c < satLimit {
			return c, true
		}
	}
	return 0, false
}

// prove decides a + aoff ≤ b + boff + w from the facts plus the
// intervals and length equalities of every involved term, by
// Bellman–Ford over the difference-constraint graph.
func (v *vrangeFunc) prove(facts []vfact, a vterm, aoff int64, b vterm, boff int64, w int64) bool {
	type edge struct {
		from, to vterm
		w        int64
	}
	var edges []edge
	nodes := make(map[vterm]bool)
	var queue []vterm
	visit := func(t vterm) {
		if !nodes[t] {
			nodes[t] = true
			queue = append(queue, t)
		}
	}
	addFact := func(f vfact) {
		edges = append(edges, edge{from: f.b, to: f.a, w: f.w})
		visit(f.a)
		visit(f.b)
	}
	for _, f := range facts {
		addFact(f)
	}
	visit(a)
	visit(b)
	visit(zTerm)

	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if t.vid < 0 {
			continue
		}
		if t.len {
			addFact(vfact{a: zTerm, b: t, w: 0}) // len ≥ 0
			for _, f := range v.lenEqualities(t) {
				addFact(f)
			}
			continue
		}
		if t.path != "" {
			continue
		}
		iv := v.iv[t.vid]
		if iv.empty() {
			continue
		}
		if iv.hi != posInf {
			addFact(vfact{a: t, b: zTerm, w: iv.hi})
		}
		if iv.lo != negInf {
			addFact(vfact{a: zTerm, b: t, w: -iv.lo})
		}
	}

	// Bellman–Ford from b; dist[a] ≤ w + boff - aoff proves the claim.
	need := satAdd(w, satSub(boff, aoff))
	dist := make(map[vterm]int64, len(nodes))
	//proram:allow maporder every entry is initialized to the same value
	for t := range nodes {
		dist[t] = posInf
	}
	dist[b] = 0
	for i := 0; i <= len(nodes); i++ {
		changed := false
		for _, e := range edges {
			if dist[e.from] == posInf {
				continue
			}
			if nd := satAdd(dist[e.from], e.w); nd < dist[e.to] {
				dist[e.to] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist[a] != posInf && dist[a] <= need
}

// lenEqualities derives equalities for a len term from the container's
// definition: arrays have a constant length, make([]T, n) has length n,
// an unkeyed composite literal has its element count, s[lo:hi] has
// hi-lo when lo is constant.
func (v *vrangeFunc) lenEqualities(t vterm) []vfact {
	if t.path != "" {
		return nil
	}
	val := v.fn.vals[t.vid]
	var out []vfact
	eq := func(b vterm, w int64) {
		out = append(out, vfact{a: t, b: b, w: w}, vfact{a: b, b: t, w: -w})
	}
	if arr, ok := deref(val.obj.Type()).(*types.Array); ok {
		eq(zTerm, arr.Len())
		return out
	}
	if val.kind != ssaExpr || val.nres != 1 {
		return out
	}
	switch e := ast.Unparen(val.expr).(type) {
	case *ast.CallExpr:
		if builtinName(v.fn.info(), e) == "make" && len(e.Args) >= 2 {
			if nt, noff, ok := v.canon(e.Args[1], 0); ok {
				eq(nt, noff)
			}
		}
	case *ast.CompositeLit:
		if _, ok := deref(typeOf(v.fn.info(), e)).(*types.Slice); ok {
			keyed := false
			for _, el := range e.Elts {
				if _, ok := el.(*ast.KeyValueExpr); ok {
					keyed = true
					break
				}
			}
			if !keyed {
				eq(zTerm, int64(len(e.Elts)))
			}
		}
	case *ast.SliceExpr:
		if e.Slice3 {
			break
		}
		lo := int64(0)
		if e.Low != nil {
			c, ok := v.constOf(e.Low)
			if !ok {
				break
			}
			lo = c
		}
		if e.High != nil {
			if ht, hoff, ok := v.canon(e.High, 0); ok {
				eq(ht, hoff-lo)
			}
		} else if ct, coff, ok := v.canon(e.X, 0); ok && coff == 0 && !ct.len && ct.vid >= 0 {
			eq(vterm{vid: ct.vid, len: true, path: ct.path}, -lo)
		}
	}
	return out
}
