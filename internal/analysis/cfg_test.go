package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildTestCFG type-checks a single-function source snippet (no
// imports) and returns the CFG of its first function.
func buildTestCFG(t *testing.T, src string) *funcCFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgfixture.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	if _, err := (&types.Config{}).Check("cfgfixture", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return buildCFG(info, fn.Body)
		}
	}
	t.Fatal("no function in snippet")
	return nil
}

// blockHolding returns the block that evaluates the expression written
// as src: a for loop's head holds its condition, the block before a
// range head holds the ranged-over operand.
func blockHolding(t *testing.T, g *funcCFG, src string) *cfgBlock {
	t.Helper()
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			if e, ok := n.(ast.Expr); ok && types.ExprString(e) == src {
				return b
			}
		}
	}
	t.Fatalf("no block evaluates %s", src)
	return nil
}

// reaches reports whether from can reach to along edges that skip the
// avoid block (nil avoids nothing).
func reaches(from, to, avoid *cfgBlock) bool {
	seen := make(map[int]bool)
	stack := []*cfgBlock{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == to {
			return true
		}
		if cur == avoid || seen[cur.index] {
			continue
		}
		seen[cur.index] = true
		stack = append(stack, cur.succs...)
	}
	return false
}

func TestCFGDoomedPanicBranch(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(x int) int {
	if x < 0 {
		panic("negative")
	}
	y := x + 1
	return y
}
`)
	d := g.doomed()
	panicking, doomedCount := 0, 0
	for i, b := range g.blocks {
		if b.panics {
			panicking++
			if !d[i] {
				t.Errorf("block %d panics but is not doomed", i)
			}
		}
		if d[i] {
			doomedCount++
		}
	}
	if panicking != 1 {
		t.Fatalf("expected exactly one panicking block, got %d", panicking)
	}
	if doomedCount != 1 {
		t.Fatalf("only the panic branch should be doomed, got %d doomed blocks", doomedCount)
	}
	if d[g.entry.index] {
		t.Fatal("entry block must not be doomed: the function can return normally")
	}
}

func TestCFGAllPathsPanic(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(x int) {
	y := x * 2
	if y > 0 {
		panic("pos")
	} else {
		panic("nonpos")
	}
}
`)
	d := g.doomed()
	if !d[g.entry.index] {
		t.Fatal("entry must be doomed: every path out of it panics")
	}
}

func TestCFGLoopNotDoomed(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`)
	d := g.doomed()
	for i := range d {
		if d[i] {
			t.Fatalf("block %d doomed in a panic-free function", i)
		}
	}
	// The loop head must branch: body and exit.
	branching := false
	for _, b := range g.blocks {
		if len(b.succs) >= 2 {
			branching = true
		}
	}
	if !branching {
		t.Fatal("loop produced no branching block")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(x int) int {
	switch x {
	case 0:
		panic("zero")
	case 1:
		fallthrough
	case 2:
		return 2
	}
	return 3
}
`)
	d := g.doomed()
	if d[g.entry.index] {
		t.Fatal("entry doomed: only the zero clause panics")
	}
	panicking := 0
	for i, b := range g.blocks {
		if b.panics {
			panicking++
			if !d[i] {
				t.Errorf("panicking clause block %d not doomed", i)
			}
		}
	}
	if panicking != 1 {
		t.Fatalf("expected one panicking clause, got %d", panicking)
	}
}

// TestCFGGoto proves a backward goto forms a cycle in the graph: the
// label block must be reachable from itself.
func TestCFGGoto(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return i
}
`)
	label := blockHolding(t, g, "i < n")
	cyclic := false
	for _, s := range label.succs {
		cyclic = cyclic || reaches(s, label, nil)
	}
	if !cyclic {
		t.Fatal("backward goto produced no cycle in the CFG")
	}
	if d := g.doomed(); d[g.entry.index] {
		t.Fatal("entry doomed in a panic-free function")
	}
}

// TestCFGLabeledBreakContinue exercises labeled frames: each loop gets
// its own head, continue outer adds a second edge into the outer post
// block, and break outer routes past the head without dooming anything.
func TestCFGLabeledBreakContinue(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
			s++
		}
	}
	return s
}
`)
	outerHead := blockHolding(t, g, "i < n")
	if innerHead := blockHolding(t, g, "j < n"); innerHead == outerHead {
		t.Fatal("the two loops share a head block")
	}
	npreds := make(map[*cfgBlock]int)
	for _, b := range g.blocks {
		for _, s := range b.succs {
			npreds[s]++
		}
	}
	// continue outer targets the outer post block — the predecessor of
	// the outer head that sits inside the loop. It picks up a second
	// incoming edge beyond the inner loop's normal exit path.
	var outerPost *cfgBlock
	for _, b := range g.blocks {
		for _, s := range b.succs {
			if s == outerHead && reaches(outerHead, b, nil) {
				outerPost = b
			}
		}
	}
	if outerPost == nil {
		t.Fatal("the outer loop has no in-loop predecessor of its head")
	}
	if npreds[outerPost] < 2 {
		t.Fatalf("continue outer should add a second edge into the outer post block, in-degree is %d", npreds[outerPost])
	}
	// break outer targets the outer exit — the head successor that cannot
	// loop back — giving it an edge beyond the head's own exit edge.
	var outerExit *cfgBlock
	for _, s := range outerHead.succs {
		if !reaches(s, outerHead, nil) {
			outerExit = s
		}
	}
	if outerExit == nil {
		t.Fatal("the outer loop has no exit successor")
	}
	if npreds[outerExit] < 2 {
		t.Fatalf("break outer should add a second edge into the outer exit, in-degree is %d", npreds[outerExit])
	}
	if d := g.doomed(); d[g.entry.index] {
		t.Fatal("entry doomed in a panic-free function")
	}
}

// TestCFGRangeOverInt proves range-over-int builds the same head/body
// shape as ranging over a container.
func TestCFGRangeOverInt(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(n int) int {
	s := 0
	for i := range n {
		s += i
	}
	return s
}
`)
	pre := blockHolding(t, g, "n")
	if len(pre.succs) != 1 {
		t.Fatalf("the block evaluating the range operand has %d successors, want the head alone", len(pre.succs))
	}
	head := pre.succs[0]
	if len(head.succs) != 2 {
		t.Fatalf("range head has %d successors, want body and exit", len(head.succs))
	}
	body, exit := head.succs[0], head.succs[1]
	if !reaches(body, head, nil) {
		t.Fatal("the range body does not loop back to the head")
	}
	if reaches(exit, head, nil) {
		t.Fatal("the range exit loops back to the head")
	}
}

// TestCFGDoomedLoop: a loop whose body always panics dooms the body but
// not the head — the zero-iteration exit is still a normal return.
func TestCFGDoomedLoop(t *testing.T) {
	g := buildTestCFG(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		panic("boom")
	}
}
`)
	d := g.doomed()
	panicking := 0
	for i, b := range g.blocks {
		if b.panics {
			panicking++
			if !d[i] {
				t.Errorf("panicking loop body %d not doomed", i)
			}
		}
	}
	if panicking != 1 {
		t.Fatalf("expected one panicking block, got %d", panicking)
	}
	if d[g.entry.index] {
		t.Fatal("entry doomed: the loop can run zero times")
	}
	if d[blockHolding(t, g, "i < n").index] {
		t.Fatal("loop head doomed: the exit edge survives")
	}
}
