package shard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestPartitionMapDeterministicAndInRange(t *testing.T) {
	m, err := NewPartitionMap(8, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if groups := m.mask + 1; groups < 64 || groups&(groups-1) != 0 {
		t.Fatalf("groups = %d, want a power of two >= 64", groups)
	}
	m2, _ := NewPartitionMap(8, 0, 42)
	for i := uint64(0); i < 4096; i++ {
		p := m.Lookup(i)
		if p < 0 || p >= 8 {
			t.Fatalf("Lookup(%d) = %d out of range", i, p)
		}
		if p2 := m2.Lookup(i); p2 != p {
			t.Fatalf("Lookup(%d) differs across identically seeded maps: %d vs %d", i, p, p2)
		}
	}
}

func TestPartitionMapSpread(t *testing.T) {
	const parts, n = 8, 1 << 14
	m, err := NewPartitionMap(parts, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var counts [parts]int
	for i := uint64(0); i < n; i++ {
		counts[m.Lookup(i)]++
	}
	// The round-robin group assignment plus a mixing hash keeps the load
	// well inside the 25% headroom the frontend provisions per partition.
	limit := n / parts * 5 / 4
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d received no blocks", p)
		}
		if c > limit {
			t.Fatalf("partition %d received %d of %d blocks, over the %d headroom", p, c, n, limit)
		}
	}
}

// tableScan is the routing Lookup replaced: a group→partition table with
// table[i] = i mod P, read in full by a masked scan. It stays here as the
// reference the arithmetic must reproduce.
func tableScan(table []uint16, g uint64) int {
	var p uint16
	for i := range table {
		d := uint64(i) ^ g
		eq := ((d | -d) >> 63) ^ 1
		p |= table[i] & (uint16(0) - uint16(eq))
	}
	return int(p)
}

func TestLookupMatchesTableScan(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 5, 8, 64, 65, 1000, 65535, 65536} {
		for _, groups := range []int{0, parts, 4 * parts} {
			m, err := NewPartitionMap(parts, groups, 0x5eed)
			if err != nil {
				t.Fatalf("P=%d groups=%d: %v", parts, groups, err)
			}
			table := make([]uint16, m.mask+1)
			for i := range table {
				table[i] = uint16(i % parts)
			}
			// The scan costs one step per group and index: sample fewer
			// indices at many groups so the whole test stays well under a
			// second.
			n := min(4096, max(8, (1<<21)/len(table)))
			for i := 0; i < n; i++ {
				idx := uint64(i) * 0x9e3779b97f4a7c15
				want := tableScan(table, mix(0x5eed, idx)&uint64(len(table)-1))
				if got := m.Lookup(idx); got != want {
					t.Fatalf("P=%d groups=%d: Lookup(%#x) = %d, table scan %d", parts, groups, idx, got, want)
				}
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	m, err := NewPartitionMap(2, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.Lookup(uint64(i))
	}
	if sink < 0 {
		b.Fatal("negative partition")
	}
}

func TestNewPartitionMapRejectsBadShapes(t *testing.T) {
	if _, err := NewPartitionMap(0, 0, 1); err == nil {
		t.Fatal("accepted zero partitions")
	}
	if _, err := NewPartitionMap(128, 16, 1); err == nil {
		t.Fatal("accepted fewer groups than partitions")
	}
	if _, err := NewPartitionMap(maxPartitions+1, 0, 1); err == nil {
		t.Fatal("accepted more than maxPartitions partitions")
	}
	if _, err := NewPartitionMap(2, 8*maxPartitions+1, 1); err == nil {
		t.Fatal("accepted more groups than fastmod is checked for")
	}
}

// TestLookupIsStraightLine holds the routing obligation of DESIGN §8: the
// partition of a block must not show in the timing or the memory trace of
// the lookup. Lookup and mix are parsed from source and must be straight
// line: no branch of any kind, no short-circuit, no table load, no
// division (variable latency on common targets), no shift by a variable
// amount, and no call beyond mix, bits.Mul64 and the int conversion.
func TestLookupIsStraightLine(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "partmap.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || (fn.Name.Name != "Lookup" && fn.Name.Name != "mix") {
			continue
		}
		checked[fn.Name.Name] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if why := notStraightLine(n); why != "" {
				t.Errorf("%s: %s: %s", fset.Position(n.Pos()), fn.Name.Name, why)
			}
			return true
		})
	}
	for _, name := range []string{"Lookup", "mix"} {
		if !checked[name] {
			t.Errorf("partmap.go declares no %s", name)
		}
	}
}

// notStraightLine names what disqualifies n, or returns "".
func notStraightLine(n ast.Node) string {
	switch x := n.(type) {
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BranchStmt:
		return "branch statement"
	case *ast.IndexExpr, *ast.IndexListExpr, *ast.SliceExpr:
		return "index or slice expression (a table load)"
	case *ast.BinaryExpr:
		return opFault(x.Op, x.Y)
	case *ast.AssignStmt:
		return opFault(x.Tok, x.Rhs[0])
	case *ast.CallExpr:
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "mix" || fun.Name == "int" {
				return ""
			}
		case *ast.SelectorExpr:
			if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "bits" && fun.Sel.Name == "Mul64" {
				return ""
			}
		}
		return "call outside mix, bits.Mul64 and int(...)"
	}
	return ""
}

// opFault judges a binary operator, or its assignment form, with right
// operand y.
func opFault(op token.Token, y ast.Expr) string {
	switch op {
	case token.LAND, token.LOR:
		return "short-circuit " + op.String()
	case token.QUO, token.REM, token.QUO_ASSIGN, token.REM_ASSIGN:
		return "division " + op.String()
	case token.SHL, token.SHR, token.SHL_ASSIGN, token.SHR_ASSIGN:
		if _, lit := y.(*ast.BasicLit); !lit {
			return "shift by a non-literal amount"
		}
	}
	return ""
}
