package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds a per-function SSA-lite view over the CFG in cfg.go:
// every read of a trackable local variable is resolved to a single
// static definition (parameter, assignment, step, range binding or phi).
// It exists so the fixedtrip pass can reason flow-sensitively — "this i
// is the i the loop condition bounds, its only definition inside the
// loop is the post step, and the bound was last assigned before the
// loop".
//
// The construction is the textbook recipe: reachability and
// predecessors over the CFG, an iterative dominator tree
// (Cooper–Harvey–Kennedy over reverse postorder), dominance frontiers,
// phi placement at the iterated frontier of each variable's definition
// blocks, and a renaming walk over the dominator tree that records, for
// every use of a tracked variable, the value visible at that point.
//
// Variables stay out of the tracked set when their value can change
// behind the analysis's back: address-taken locals (explicitly with &,
// or implicitly via a pointer-receiver method call or by slicing an
// array), and locals written inside a function literal. Reads of
// untracked variables simply have no entry in useOf and clients fall
// back to conservative type-based answers. Function-literal bodies are
// excluded from the enclosing CFG and therefore from the SSA view.

// ssaValue kinds.
const (
	ssaParam    = iota // parameter or receiver, defined at entry
	ssaZero            // var declaration without initializer
	ssaExpr            // x = <expr>
	ssaStep            // x++, x--, x op= <expr>: operand is the previous version
	ssaPhi             // join of versions at a control-flow merge
	ssaRangeKey        // key binding of a range loop
	ssaRangeVal        // value binding of a range loop
)

// ssaValue is one SSA definition of a source-level variable.
type ssaValue struct {
	id      int
	kind    int
	obj     types.Object
	block   int         // defining block index
	expr    ast.Expr    // ssaExpr: rhs; ssaStep: rhs operand (nil for ++/--); ssaRange*: the range container
	op      token.Token // ssaStep: the arithmetic token (++ and -- normalize to ADD/SUB with nil expr)
	operand int         // ssaStep: the previous version's id
	phiArgs []int       // ssaPhi: incoming version per predecessor (-1: undefined on that path)
}

// ssaFunc is the SSA view of one function body.
type ssaFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	cfg  *funcCFG

	reach    []bool
	preds    [][]int
	idom     []int   // immediate dominator; entry maps to itself, unreachable to -1
	children [][]int // dominator-tree children
	postnum  []int   // postorder number, for dominator intersection

	vals    []*ssaValue
	phis    [][]*ssaValue      // per block, in placement order
	useOf   map[*ast.Ident]int // every resolved read of a tracked variable
	tracked map[types.Object]bool
	written map[types.Object]bool // objects assigned through a selector/index path rooted at them

	renameUses func(ast.Node) // installed during rename; closes over the version map
}

func (f *ssaFunc) info() *types.Info { return f.pkg.Info }

// buildSSA constructs the SSA view for one declared function body.
func buildSSA(pkg *Package, decl *ast.FuncDecl) *ssaFunc {
	f := &ssaFunc{
		pkg:   pkg,
		decl:  decl,
		cfg:   buildCFG(pkg.Info, decl.Body),
		useOf: make(map[*ast.Ident]int),
	}
	f.computeReach()
	f.computePreds()
	f.computeDominators()
	f.collectTracked()
	defsites := f.collectDefs()
	f.placePhis(defsites)
	f.rename()
	return f
}

func (f *ssaFunc) computeReach() {
	f.reach = make([]bool, len(f.cfg.blocks))
	var dfs func(b *cfgBlock)
	dfs = func(b *cfgBlock) {
		if f.reach[b.index] {
			return
		}
		f.reach[b.index] = true
		for _, s := range b.succs {
			dfs(s)
		}
	}
	dfs(f.cfg.entry)
}

func (f *ssaFunc) computePreds() {
	f.preds = make([][]int, len(f.cfg.blocks))
	for _, b := range f.cfg.blocks {
		if !f.reach[b.index] {
			continue
		}
		for _, s := range b.succs {
			f.preds[s.index] = append(f.preds[s.index], b.index)
		}
	}
}

// computeDominators runs the iterative Cooper–Harvey–Kennedy algorithm
// over reverse postorder, then derives the dominator-tree children.
func (f *ssaFunc) computeDominators() {
	n := len(f.cfg.blocks)
	f.postnum = make([]int, n)
	var order []int // postorder
	visited := make([]bool, n)
	var dfs func(b *cfgBlock)
	dfs = func(b *cfgBlock) {
		visited[b.index] = true
		for _, s := range b.succs {
			if !visited[s.index] {
				dfs(s)
			}
		}
		f.postnum[b.index] = len(order)
		order = append(order, b.index)
	}
	dfs(f.cfg.entry)

	f.idom = make([]int, n)
	for i := range f.idom {
		f.idom[i] = -1
	}
	entry := f.cfg.entry.index
	f.idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for f.postnum[a] < f.postnum[b] {
				a = f.idom[a]
			}
			for f.postnum[b] < f.postnum[a] {
				b = f.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(order) - 1; i >= 0; i-- { // reverse postorder
			b := order[i]
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range f.preds[b] {
				if f.idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && f.idom[b] != newIdom {
				f.idom[b] = newIdom
				changed = true
			}
		}
	}

	f.children = make([][]int, n)
	for b := 0; b < n; b++ {
		if b != entry && f.idom[b] >= 0 {
			f.children[f.idom[b]] = append(f.children[f.idom[b]], b)
		}
	}
}

// dominates reports whether block a dominates block b.
func (f *ssaFunc) dominates(a, b int) bool {
	for {
		if a == b {
			return true
		}
		next := f.idom[b]
		if next < 0 || next == b {
			return false
		}
		b = next
	}
}

// loopBlocks returns the natural loop of the given head: the head plus
// every block that reaches a back edge into it without passing through
// it. Back edges are edges t→head where head dominates t.
func (f *ssaFunc) loopBlocks(head int) map[int]bool {
	loop := map[int]bool{head: true}
	var stack []int
	for _, t := range f.preds[head] {
		if f.dominates(head, t) && !loop[t] {
			loop[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range f.preds[b] {
			if !loop[p] {
				loop[p] = true
				stack = append(stack, p)
			}
		}
	}
	return loop
}

// collectTracked decides which variables get SSA versions: parameters,
// receivers, named results and body-declared locals, minus anything
// whose address escapes or that a function literal writes.
func (f *ssaFunc) collectTracked() {
	f.tracked = make(map[types.Object]bool)
	f.written = make(map[types.Object]bool)
	info := f.info()

	add := func(id *ast.Ident) {
		if obj, ok := info.Defs[id].(*types.Var); ok && obj != nil {
			f.tracked[obj] = true
		}
	}
	for _, fl := range []*ast.FieldList{f.decl.Recv, f.decl.Type.Params, f.decl.Type.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				add(name)
			}
		}
	}
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			add(id)
		}
		return true
	})

	drop := func(e ast.Expr) {
		if id := rootIdent(e); id != nil {
			if obj := info.Uses[id]; obj != nil {
				delete(f.tracked, obj)
			}
			if obj := info.Defs[id]; obj != nil {
				delete(f.tracked, obj)
			}
		}
	}
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(x.Body, true)
				return false
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					// &s[i] escapes one element, not the slice header
					// (or an array's length): no tracked value the
					// analysis reasons about can change through it.
					if _, elem := ast.Unparen(x.X).(*ast.IndexExpr); !elem {
						drop(x.X)
					}
				}
			case *ast.SliceExpr:
				// Slicing an array takes its address.
				if _, ok := deref(typeOf(info, x.X)).(*types.Array); ok {
					drop(x.X)
				}
			case *ast.CallExpr:
				// A pointer-receiver method call on an addressable value
				// takes the receiver's address implicitly.
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
						if fn, ok := s.Obj().(*types.Func); ok {
							if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
								_, ptrRecv := recv.Type().Underlying().(*types.Pointer)
								_, ptrBase := typeOf(info, sel.X).Underlying().(*types.Pointer)
								if ptrRecv && !ptrBase {
									drop(sel.X)
								}
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					f.noteWrite(l, inLit, drop)
				}
			case *ast.IncDecStmt:
				f.noteWrite(x.X, inLit, drop)
			case *ast.RangeStmt:
				if inLit {
					if x.Key != nil {
						drop(x.Key)
					}
					if x.Value != nil {
						drop(x.Value)
					}
				}
			}
			return true
		})
	}
	walk(f.decl.Body, false)
}

// noteWrite records an assignment target: plain-ident writes inside a
// function literal untrack the variable, and writes through a selector,
// index or dereference mark the root object as mutated in place (which
// invalidates field-path reasoning rooted at it).
func (f *ssaFunc) noteWrite(target ast.Expr, inLit bool, drop func(ast.Expr)) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		if inLit {
			drop(t)
		}
	default:
		if id := rootIdent(target); id != nil {
			if obj := f.info().Uses[id]; obj != nil {
				f.written[obj] = true
			}
		}
		if inLit {
			drop(target)
		}
	}
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		return p.Elem().Underlying()
	}
	return u
}

// ssaDef is one definition event inside a block's node list.
type ssaDef struct {
	obj  types.Object
	make func(prev int) *ssaValue // prev: version before the def (ssaStep needs it)
}

func (f *ssaFunc) newValue(v *ssaValue) int {
	v.id = len(f.vals)
	f.vals = append(f.vals, v)
	return v.id
}

// collectDefs finds the blocks defining each tracked variable, for phi
// placement. The definition events themselves are re-derived during
// renaming (nodeDefs), so this only records block membership.
func (f *ssaFunc) collectDefs() map[types.Object]map[int]bool {
	sites := make(map[types.Object]map[int]bool)
	at := func(obj types.Object, block int) {
		if !f.tracked[obj] {
			return
		}
		if sites[obj] == nil {
			sites[obj] = make(map[int]bool)
		}
		sites[obj][block] = true
	}
	entry := f.cfg.entry.index
	for _, fl := range []*ast.FieldList{f.decl.Recv, f.decl.Type.Params, f.decl.Type.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := f.info().Defs[name]; obj != nil {
					at(obj, entry)
				}
			}
		}
	}
	for _, b := range f.cfg.blocks {
		if !f.reach[b.index] {
			continue
		}
		for _, n := range b.nodes {
			for _, d := range f.nodeDefs(n, b.index) {
				at(d.obj, b.index)
			}
		}
		if b.rangeLoop != nil {
			for _, d := range f.rangeDefs(b.rangeLoop, b.index) {
				at(d.obj, b.index)
			}
		}
	}
	return sites
}

// nodeDefs lists the definition events a node performs, in evaluation
// order. The rhs expressions of the events are resolved against the
// versions current *before* the node (Go evaluates all rhs before any
// assignment), which is exactly how rename applies them.
func (f *ssaFunc) nodeDefs(n ast.Node, block int) []ssaDef {
	info := f.info()
	var out []ssaDef
	objOf := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	assign := func(x *ast.AssignStmt) {
		if x.Tok != token.DEFINE && x.Tok != token.ASSIGN {
			// Op-assign: x op= rhs reads the previous version.
			if len(x.Lhs) != 1 {
				return
			}
			id, ok := ast.Unparen(x.Lhs[0]).(*ast.Ident)
			if !ok {
				return
			}
			obj := objOf(id)
			if obj == nil || !f.tracked[obj] {
				return
			}
			op := assignOp(x.Tok)
			rhs := x.Rhs[0]
			out = append(out, ssaDef{obj: obj, make: func(prev int) *ssaValue {
				return &ssaValue{kind: ssaStep, obj: obj, block: block, expr: rhs, op: op, operand: prev}
			}})
			return
		}
		multi := len(x.Rhs) == 1 && len(x.Lhs) > 1
		for i, l := range x.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := objOf(id)
			if obj == nil || !f.tracked[obj] {
				continue
			}
			var rhs ast.Expr
			if multi {
				rhs = x.Rhs[0]
			} else if i < len(x.Rhs) {
				rhs = x.Rhs[i]
			} else {
				continue
			}
			out = append(out, ssaDef{obj: obj, make: func(int) *ssaValue {
				return &ssaValue{kind: ssaExpr, obj: obj, block: block, expr: rhs}
			}})
		}
	}
	switch x := n.(type) {
	case *ast.AssignStmt:
		assign(x)
	case *ast.IncDecStmt:
		id, ok := ast.Unparen(x.X).(*ast.Ident)
		if !ok {
			break
		}
		obj := objOf(id)
		if obj == nil || !f.tracked[obj] {
			break
		}
		op := token.ADD
		if x.Tok == token.DEC {
			op = token.SUB
		}
		out = append(out, ssaDef{obj: obj, make: func(prev int) *ssaValue {
			return &ssaValue{kind: ssaStep, obj: obj, block: block, op: op, operand: prev}
		}})
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			multi := len(vs.Values) == 1 && len(vs.Names) > 1
			for i, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil || !f.tracked[obj] {
					continue
				}
				var rhs ast.Expr
				switch {
				case multi:
					rhs = vs.Values[0]
				case i < len(vs.Values):
					rhs = vs.Values[i]
				}
				if rhs == nil {
					out = append(out, ssaDef{obj: obj, make: func(int) *ssaValue {
						return &ssaValue{kind: ssaZero, obj: obj, block: block}
					}})
					continue
				}
				out = append(out, ssaDef{obj: obj, make: func(int) *ssaValue {
					return &ssaValue{kind: ssaExpr, obj: obj, block: block, expr: rhs}
				}})
			}
		}
	}
	return out
}

// rangeDefs lists the key/value binding events of a range head block.
func (f *ssaFunc) rangeDefs(s *ast.RangeStmt, block int) []ssaDef {
	info := f.info()
	var out []ssaDef
	bind := func(e ast.Expr, kind int) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !f.tracked[obj] {
			return
		}
		k := kind
		out = append(out, ssaDef{obj: obj, make: func(int) *ssaValue {
			return &ssaValue{kind: k, obj: obj, block: block, expr: s.X}
		}})
	}
	if s.Key != nil {
		bind(s.Key, ssaRangeKey)
	}
	if s.Value != nil {
		bind(s.Value, ssaRangeVal)
	}
	return out
}

func assignOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return token.ILLEGAL
}

// placePhis inserts phi values at the iterated dominance frontier of
// each variable's definition blocks.
func (f *ssaFunc) placePhis(defsites map[types.Object]map[int]bool) {
	n := len(f.cfg.blocks)
	df := make([][]int, n)
	for b := 0; b < n; b++ {
		if !f.reach[b] || len(f.preds[b]) < 2 {
			continue
		}
		for _, p := range f.preds[b] {
			for runner := p; runner != f.idom[b]; runner = f.idom[runner] {
				df[runner] = append(df[runner], b)
				if runner == f.idom[runner] { // entry self-loop guard
					break
				}
			}
		}
	}

	f.phis = make([][]*ssaValue, n)
	// Deterministic variable order: by definition position.
	var objs []types.Object
	//proram:allow maporder collected keys are sorted by position before use
	for obj := range defsites {
		objs = append(objs, obj)
	}
	sortObjectsByPos(objs)
	for _, obj := range objs {
		hasPhi := make(map[int]bool)
		var work []int
		//proram:allow maporder worklist order cannot change the iterated-frontier fixpoint
		for b := range defsites[obj] {
			work = append(work, b)
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[b] {
				if hasPhi[y] {
					continue
				}
				hasPhi[y] = true
				phi := &ssaValue{kind: ssaPhi, obj: obj, block: y, phiArgs: make([]int, len(f.preds[y]))}
				for i := range phi.phiArgs {
					phi.phiArgs[i] = -1
				}
				f.newValue(phi)
				f.phis[y] = append(f.phis[y], phi)
				if !defsites[obj][y] {
					work = append(work, y)
				}
			}
		}
	}
}

func sortObjectsByPos(objs []types.Object) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objs[j].Pos() < objs[j-1].Pos(); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}

// rename walks the dominator tree assigning versions: parameter values
// at entry, definition events in node order, phi argument filling along
// each outgoing edge, and useOf entries for every resolved read.
func (f *ssaFunc) rename() {
	cur := make(map[types.Object]int)
	entry := f.cfg.entry.index

	// Entry definitions: receiver, parameters, named results.
	var undoEntry []func()
	set := func(obj types.Object, id int) func() {
		prev, had := cur[obj]
		cur[obj] = id
		return func() {
			if had {
				cur[obj] = prev
			} else {
				delete(cur, obj)
			}
		}
	}
	defineEntry := func(fl *ast.FieldList, kind int) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := f.info().Defs[name]
				if obj == nil || !f.tracked[obj] {
					continue
				}
				id := f.newValue(&ssaValue{kind: kind, obj: obj, block: entry})
				undoEntry = append(undoEntry, set(obj, id))
			}
		}
	}
	defineEntry(f.decl.Recv, ssaParam)
	defineEntry(f.decl.Type.Params, ssaParam)
	defineEntry(f.decl.Type.Results, ssaZero)

	var visit func(bi int)
	visit = func(bi int) {
		b := f.cfg.blocks[bi]
		var undo []func()
		for _, phi := range f.phis[bi] {
			undo = append(undo, set(phi.obj, phi.id))
		}
		for _, n := range b.nodes {
			f.resolveUses(n)
			for _, d := range f.nodeDefs(n, bi) {
				prev, ok := cur[d.obj]
				if !ok {
					prev = -1
				}
				v := d.make(prev)
				f.newValue(v)
				undo = append(undo, set(d.obj, v.id))
			}
		}
		if b.rangeLoop != nil {
			for _, d := range f.rangeDefs(b.rangeLoop, bi) {
				v := d.make(-1)
				f.newValue(v)
				undo = append(undo, set(d.obj, v.id))
			}
		}
		for _, s := range b.succs {
			for _, phi := range f.phis[s.index] {
				if id, ok := cur[phi.obj]; ok {
					for k, p := range f.preds[s.index] {
						if p == bi {
							phi.phiArgs[k] = id
						}
					}
				}
			}
		}
		for _, c := range f.children[bi] {
			visit(c)
		}
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}

	// resolveUses/nodeDefs close over cur via this helper pair.
	f.renameUses = func(n ast.Node) {
		skip := f.defTargets(n)
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectorExpr:
				// Only the base can be a variable read; Sel is a member name.
				f.renameUses(x.X)
				return false
			case *ast.Ident:
				if skip[x] {
					return true
				}
				obj := f.info().Uses[x]
				if obj == nil || !f.tracked[obj] {
					return true
				}
				if id, ok := cur[obj]; ok {
					f.useOf[x] = id
				}
			}
			return true
		})
	}
	visit(entry)
	for i := len(undoEntry) - 1; i >= 0; i-- {
		undoEntry[i]()
	}
	f.renameUses = nil
}

func (f *ssaFunc) resolveUses(n ast.Node) {
	if f.renameUses != nil {
		f.renameUses(n)
	}
}

// defTargets returns the identifiers a node writes (not reads): the
// plain-ident left-hand sides of = and := assignments and value-spec
// names. Op-assign and ++/-- targets are reads too, so they are not
// included; their read resolves to the pre-step version, which is what
// the ssaStep operand records.
func (f *ssaFunc) defTargets(n ast.Node) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	switch x := n.(type) {
	case *ast.AssignStmt:
		if x.Tok == token.DEFINE || x.Tok == token.ASSIGN {
			for _, l := range x.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					out[id] = true
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						out[name] = true
					}
				}
			}
		}
	}
	return out
}
