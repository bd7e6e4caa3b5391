package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds the module-local call graph that the interprocedural
// passes (oblivious, seedplumbing, branchless) share.
// Nodes are the functions and methods declared in loaded packages; edges
// are the statically resolvable calls between them (direct calls and
// concrete method calls — calls through interfaces, function values and
// the standard library stay unresolved and are handled conservatively by
// each client). Recursion is condensed into strongly connected
// components so summary computation can run bottom-up: every SCC is
// visited after all the SCCs it calls into.

// CGNode is one declared function or method in the call graph.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Params lists the receiver (when there is one) followed by the
	// declared parameters; this is the parameter indexing every function
	// summary uses.
	Params   []types.Object
	Variadic bool

	// Callees are the resolved module-local calls in source order. One
	// callee may appear many times, once per call site.
	Callees []CGEdge

	// SCC is the condensation component index; CallGraph.SCCs[SCC]
	// contains this node. Nodes in the same component reach each other.
	SCC int

	index, lowlink int
	onStack        bool
}

// CGEdge is one resolved call site.
type CGEdge struct {
	Call   *ast.CallExpr
	Callee *CGNode
}

// Name renders the node for diagnostics: "Fn" or "Type.Method".
func (n *CGNode) Name() string {
	if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + n.Fn.Name()
		}
	}
	return n.Fn.Name()
}

// CallGraph is the module-local call graph plus its SCC condensation.
type CallGraph struct {
	Nodes []*CGNode // deterministic: package load order, file order, declaration order

	// SCCs lists the strongly connected components bottom-up: every
	// component appears after each component it calls into, so clients
	// computing summaries visit callees before callers.
	SCCs [][]*CGNode

	byFunc map[*types.Func]*CGNode
	byPkg  map[*Package][]*CGNode // each package's slice of Nodes
}

// NodeOf returns the node for a declared function, or nil for functions
// outside the loaded module (or without bodies).
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode { return g.byFunc[fn] }

// Funcs returns the functions and methods the unit's package declares
// with a body, in file and declaration order: the one function
// inventory every per-function pass iterates.
func (u *Unit) Funcs() []*CGNode { return u.Prog.CallGraph().byPkg[u.Pkg] }

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{byFunc: make(map[*types.Func]*CGNode), byPkg: make(map[*Package][]*CGNode)}

	// Collect the nodes first so edges can resolve forward references.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Fn: obj, Decl: fn, Pkg: pkg, SCC: -1, index: -1}
				node.Params = declParams(pkg.Info, fn)
				node.Variadic = obj.Type().(*types.Signature).Variadic()
				g.byFunc[obj] = node
				g.Nodes = append(g.Nodes, node)
				g.byPkg[pkg] = append(g.byPkg[pkg], node)
			}
		}
	}

	for _, node := range g.Nodes {
		n := node
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := g.resolveCall(n.Pkg, call); callee != nil {
				n.Callees = append(n.Callees, CGEdge{Call: call, Callee: callee})
			}
			return true
		})
	}

	g.condense()
	return g
}

// declParams returns the receiver (if any) followed by the parameter
// objects of a declaration, in source order.
func declParams(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	collect(fn.Recv)
	collect(fn.Type.Params)
	return out
}

// resolveCall maps a call expression to the module-declared function it
// statically invokes: a plain call of a declared function, a qualified
// pkg.Fn call, or a concrete method call. Interface dispatch, method
// expressions and calls through function values return nil.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr) *CGNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return g.byFunc[fn]
			}
			return nil
		}
		// No selection entry: a package-qualified reference.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return g.byFunc[fn]
		}
	}
	return nil
}

// condense runs Tarjan's SCC algorithm. Components are emitted callees
// first, which is exactly the bottom-up order summary computation needs.
func (g *CallGraph) condense() {
	next := 0
	var stack []*CGNode
	var strongconnect func(n *CGNode)
	strongconnect = func(n *CGNode) {
		n.index = next
		n.lowlink = next
		next++
		stack = append(stack, n)
		n.onStack = true
		for _, e := range n.Callees {
			c := e.Callee
			if c.index < 0 {
				strongconnect(c)
				n.lowlink = min(n.lowlink, c.lowlink)
			} else if c.onStack {
				n.lowlink = min(n.lowlink, c.index)
			}
		}
		if n.lowlink == n.index {
			var comp []*CGNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				m.SCC = len(g.SCCs)
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}
	for _, n := range g.Nodes {
		if n.index < 0 {
			strongconnect(n)
		}
	}
}
