package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcDeterminism extends the determinism discipline to concurrent
// sources of nondeterminism. Three shapes are flagged:
//
//   - a select with two or more communication cases: when several are
//     ready the runtime picks pseudo-randomly, so the winner is a
//     scheduling outcome (select-with-default is the sequential
//     determinism pass's finding);
//
//   - a channel receive inside a loop, including range-over-channel:
//     multi-sender fan-in delivers in goroutine completion order, so
//     anything folded, logged or exported from the loop can differ run
//     to run;
//
//   - goroutines spawned in a loop whose literal sends on a channel
//     declared outside it: the sends arrive in scheduling order.
//
// The sharded frontend is *designed* to be deterministic despite these
// shapes: workers report into a round barrier and the round driver
// reassembles results into canonical (slot, partition) order before
// anything observable happens. //proram:detround <reason> on the
// flagged line records exactly that justification — and this pass
// verifies it, by requiring the enclosing function to be reachable in
// the call graph from a round driver root ("internal/shard.Frontend.dispatch"
// or "internal/shard.Replay" by default; fixture tests pass their own).
// A detround directive outside the round protocol, or one that marks
// nothing, is itself a finding. //proram:allow concdeterminism remains
// the escape hatch for code with a different argument (say, a
// single-sender channel).
func ConcDeterminism(roots ...string) *Pass {
	if len(roots) == 0 {
		roots = []string{"internal/shard.Frontend.dispatch", "internal/shard.Replay"}
	}
	var reachable map[*CGNode]bool
	p := &Pass{
		Name: "concdeterminism",
		Doc:  "flag scheduling-ordered concurrency (multi-case selects, fan-in receives, spawn-order results) outside the round-barrier protocol",
	}
	p.Run = func(u *Unit) {
		if reachable == nil {
			reachable = reachableFrom(u.Prog, roots)
		}
		for _, node := range u.Funcs() {
			checkConcDet(u, node, reachable)
		}
		// A detround that marked no finding is stale — the code it
		// justified is gone or was never flagged.
		for _, d := range u.Pkg.Directives {
			if d.Kind == "detround" && !d.used {
				u.Reportf(d.Pos, "//proram:detround marks no concurrent-determinism finding; delete the stale directive")
			}
		}
	}
	return p
}

// reachableFrom resolves the root specs ("<pkg-rel>.<Func>" or
// "<pkg-rel>.<Type>.<Method>") and walks the call graph forward.
func reachableFrom(prog *Program, roots []string) map[*CGNode]bool {
	want := make(map[string]bool, len(roots))
	for _, r := range roots {
		want[r] = true
	}
	seen := make(map[*CGNode]bool)
	var frontier []*CGNode
	for _, n := range prog.CallGraph().Nodes {
		if want[n.Pkg.Rel+"."+n.Name()] {
			seen[n] = true
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, e := range n.Callees {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				frontier = append(frontier, e.Callee)
			}
		}
	}
	return seen
}

// checkConcDet scans one declaration for the three shapes. Nested
// function literals count as part of the declaration: their code is
// this function's concurrency.
func checkConcDet(u *Unit, node *CGNode, reachable map[*CGNode]bool) {
	var loops int
	var walk func(x ast.Node) bool
	report := func(pos token.Pos, format string, args ...any) {
		reportConcDet(u, node, reachable, pos, format, args...)
	}
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectStmt:
			comms := 0
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				report(x.Pos(), "select with %d communication cases: when several are ready the runtime picks pseudo-randomly, so the outcome is scheduling-dependent", comms)
			}
		case *ast.ForStmt:
			loops++
			if x.Cond != nil {
				ast.Inspect(x.Cond, walk)
			}
			ast.Inspect(x.Body, walk)
			loops--
			return false
		case *ast.RangeStmt:
			if isChanType(u.Pkg.Info, x.X) {
				report(x.Pos(), "range over a channel is unordered fan-in: values arrive in goroutine scheduling order when the channel has multiple senders")
			}
			loops++
			ast.Inspect(x.Body, walk)
			loops--
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && loops > 0 {
				report(x.Pos(), "channel receive inside a loop is unordered fan-in: arrival order depends on goroutine scheduling when the channel has multiple senders")
			}
		case *ast.GoStmt:
			if loops > 0 {
				if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok && sendsOnOuterChan(u.Pkg.Info, lit) {
					report(x.Pos(), "goroutines spawned in a loop send on a shared channel: completion order, and so the receive order, is scheduling-dependent")
				}
			}
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
}

// sendsOnOuterChan reports whether the literal sends on a channel it
// did not itself declare.
func sendsOnOuterChan(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		s, ok := x.(*ast.SendStmt)
		if !ok {
			return true
		}
		if obj := rootObject(info, s.Chan); obj != nil {
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				found = true
			}
		}
		return true
	})
	return found
}

// reportConcDet emits one finding unless an in-scope, verified
// //proram:detround covers it.
func reportConcDet(u *Unit, node *CGNode, reachable map[*CGNode]bool, pos token.Pos, format string, args ...any) {
	p := u.Prog.Fset.Position(pos)
	if d := u.Pkg.directiveAt("detround", p.Filename, p.Line); d != nil {
		d.used = true
		if d.Reason == "" {
			u.Reportf(pos, "//proram:detround needs a one-line reason explaining how the round barrier orders this")
			return
		}
		if !reachable[node] {
			u.Reportf(pos, "//proram:detround on code in %s, which is not reachable from a round driver; the round-barrier protocol cannot be what makes this deterministic", node.Name())
		}
		return
	}
	u.Reportf(pos, format, args...)
}
