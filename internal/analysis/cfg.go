package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is a light-weight per-function control-flow graph over the
// typed AST. It exists for one client question — "is this allocation on
// a failure path that already ends in panic?" — so it models exactly
// what that needs: basic blocks of evaluated nodes, successor edges for
// every Go control construct, and a doomed-block fixpoint (a block is
// doomed when every path out of it panics). Failure-path allocations
// (the fmt.Sprintf feeding a panic) are exempt from the hot-path
// allocation discipline; everything reachable past them is not.

// cfgBlock is one basic block. nodes holds the statements and the
// condition/tag expressions evaluated in the block, in source order;
// bodies of nested control statements live in other blocks, and
// function literals keep their bodies out of the enclosing graph
// entirely (clients build a separate graph per literal).
type cfgBlock struct {
	index  int
	nodes  []ast.Node
	succs  []*cfgBlock
	panics bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

// doomed returns, per block index, whether every path from the block
// ends in panic: the block panics itself, or it has successors and all
// of them are doomed. Normal exits (return, falling off the end) have
// no successors and are never doomed, so the fixpoint only grows along
// genuinely inescapable paths. Infinite loops stay undoomed, which is
// the conservative direction for an exemption.
func (g *funcCFG) doomed() []bool {
	d := make([]bool, len(g.blocks))
	for i, b := range g.blocks {
		d[i] = b.panics
	}
	for changed := true; changed; {
		changed = false
		for i, b := range g.blocks {
			if d[i] || len(b.succs) == 0 {
				continue
			}
			all := true
			for _, s := range b.succs {
				if !d[s.index] {
					all = false
					break
				}
			}
			if all {
				d[i] = true
				changed = true
			}
		}
	}
	return d
}

type cfgBuilder struct {
	info *types.Info
	g    *funcCFG
	cur  *cfgBlock // nil after a terminator (return, branch, panic)

	frames []cfgFrame
	labels map[string]*cfgBlock
	gotos  []cfgGoto

	pendingLabel string
}

// cfgFrame is one enclosing breakable construct. contTgt is nil for
// switch and select frames (continue passes through to the loop).
type cfgFrame struct {
	label    string
	breakTgt *cfgBlock
	contTgt  *cfgBlock
}

type cfgGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG constructs the graph for one function or literal body.
func buildCFG(info *types.Info, body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{info: info, g: &funcCFG{}, labels: make(map[string]*cfgBlock)}
	b.cur = b.newBlock()
	b.g.entry = b.cur
	b.stmtList(body.List)
	for _, gt := range b.gotos {
		if tgt, ok := b.labels[gt.label]; ok {
			b.link(gt.from, tgt)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// emit appends an evaluated node to the current block, starting an
// (unreachable) fresh block if a terminator just closed the last one.
func (b *cfgBuilder) emit(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

// ensure returns the current block, starting one if needed.
func (b *cfgBuilder) ensure() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.link(b.ensure(), lb)
		b.cur = lb
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(s.Cond)
		cond := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.link(b.cur, join)
		if s.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.link(b.cur, join)
		} else {
			b.link(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.link(b.ensure(), head)
		b.cur = head
		b.emit(s.Cond)
		body := b.newBlock()
		exit := b.newBlock()
		b.link(head, body)
		if s.Cond != nil {
			b.link(head, exit)
		}
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.frames = append(b.frames, cfgFrame{label: label, breakTgt: exit, contTgt: cont})
		b.cur = body
		b.stmt(s.Body)
		if post != nil {
			b.link(b.cur, post)
			b.cur = post
			b.stmt(s.Post)
			b.link(b.cur, head)
		} else {
			b.link(b.cur, head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.emit(s.X)
		head := b.newBlock()
		b.link(b.ensure(), head)
		body := b.newBlock()
		exit := b.newBlock()
		b.link(head, body)
		b.link(head, exit)
		b.frames = append(b.frames, cfgFrame{label: label, breakTgt: exit, contTgt: head})
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.ensure()
		join := b.newBlock()
		b.frames = append(b.frames, cfgFrame{label: label, breakTgt: join})
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.link(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.link(b.cur, join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = join

	case *ast.ReturnStmt:
		b.emit(s)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.link(b.cur, b.frameTarget(s, false))
			b.cur = nil
		case token.CONTINUE:
			b.link(b.cur, b.frameTarget(s, true))
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, cfgGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// The switch builder links the clause to its successor.
		}

	case *ast.ExprStmt:
		b.emit(s)
		if call, ok := s.X.(*ast.CallExpr); ok && builtinName(b.info, call) == "panic" {
			b.cur.panics = true
			b.cur = nil
		}

	default:
		// Assignments, declarations, send, inc/dec, defer, go, empty.
		b.emit(s)
	}
}

// switchLike builds expression and type switches: head evaluates the
// init/tag, every clause is a successor of the head, fallthrough chains
// a clause to the next one, and a missing default adds a head→join edge.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.emit(tag)
	}
	if assign != nil {
		b.emit(assign)
	}
	head := b.ensure()
	join := b.newBlock()
	b.frames = append(b.frames, cfgFrame{label: label, breakTgt: join})

	var clauses []*ast.CaseClause
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.link(head, blocks[i])
	}
	hasDefault := false
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		b.stmtList(cc.Body)
		if endsWithFallthrough(cc.Body) && i+1 < len(blocks) {
			b.link(b.cur, blocks[i+1])
			b.cur = nil
		} else {
			b.link(b.cur, join)
		}
	}
	if !hasDefault {
		b.link(head, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func endsWithFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// frameTarget resolves a break/continue to its enclosing construct,
// honoring an explicit label.
func (b *cfgBuilder) frameTarget(s *ast.BranchStmt, isContinue bool) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if s.Label != nil && f.label != s.Label.Name {
			continue
		}
		if isContinue {
			if f.contTgt != nil {
				return f.contTgt
			}
			continue
		}
		return f.breakTgt
	}
	return nil
}

// builtinName returns the name of the builtin a call invokes ("len",
// "panic", ...), or "" when the callee is anything else — including a
// user declaration that shadows a builtin's name.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}
