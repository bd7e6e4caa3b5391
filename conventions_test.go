package proram

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// bannedTimeFuncs are the time package functions that read the wall or
// monotonic clock. Duration arithmetic stays legal: only reading a clock
// breaks reproducibility.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true, "After": true,
	"AfterFunc": true, "NewTicker": true, "NewTimer": true, "Sleep": true,
}

// directive is one //proram: comment. Its kind is "allow" (written
// //proram:allow determinism <reason>, it excuses a clock read) or
// "invariant" (written //proram:invariant <reason>, it excuses a library
// panic); either excuses a site on its own line or the next.
type directive struct {
	kind string
	pos  token.Pos
	line int
	used bool
}

// TestSourceConventions holds the source rules that keep every artifact a
// pure function of its seed, and library panics to justified invariants.
// It parses every non-test Go file of the repository, benchmark/ included,
// and needs no type information:
//
//   - no math/rand or math/rand/v2 import, and no crypto/rand under
//     internal/: randomness comes from a seeded proram/internal/rng source;
//   - a clock read (bannedTimeFuncs, through the file's name for "time")
//     needs //proram:allow determinism <reason>;
//   - no select with a default clause: it branches on goroutine scheduling;
//   - under internal/, rng.New's seed is not built only from literals and
//     the file's own top-level constants: the caller threads it;
//   - a panic outside package main needs //proram:invariant <reason>;
//   - every //proram: comment is one of those two forms, has a reason and
//     excuses a site;
//   - an exported function or method declared under internal/ is named by
//     some non-test file other than in its own declaration, or by a test
//     file of another directory: an export that only its own package's
//     tests reach belongs unexported.
func TestSourceConventions(t *testing.T) {
	fset := token.NewFileSet()
	files, kinds := 0, make(map[string]int)
	var exported []*ast.FuncDecl
	named := make(map[string]bool)            // names non-test files use
	testNamed := make(map[string][]string)    // name → directories of the test files using it
	declDir := make(map[*ast.FuncDecl]string) // an exported declaration's directory
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := d.Name(); {
		case d.IsDir() && p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_"):
			return nil
		}
		dir := filepath.Dir(p)
		if strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for name := range usedNames(f) {
				testNamed[name] = append(testNamed[name], dir)
			}
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		internal := strings.HasPrefix(filepath.ToSlash(p), "internal/")
		for _, d := range checkConventions(t, fset, f, internal) {
			kinds[d.kind]++
		}
		for name := range usedNames(f) {
			named[name] = true
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && internal && fd.Name.IsExported() {
				exported = append(exported, fd)
				declDir[fd] = dir
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range exported {
		name := fd.Name.Name
		if !named[name] && !slices.ContainsFunc(testNamed[name], func(dir string) bool { return dir != declDir[fd] }) {
			t.Errorf("%s: exported %s is named by no program and no other package's tests: unexport it or delete it",
				fset.Position(fd.Pos()), name)
		}
	}
	t.Logf("%d files: %d invariants, %d clock allows, %d exported functions under internal/",
		files, kinds["invariant"], kinds["allow"], len(exported))
}

// usedNames returns every identifier f names outside the names of its own
// function declarations.
func usedNames(f *ast.File) map[string]bool {
	decl := make(map[*ast.Ident]bool)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			decl[fd.Name] = true
		}
	}
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !decl[id] {
			names[id.Name] = true
		}
		return true
	})
	return names
}

// checkConventions reports every breach of TestSourceConventions' rules in
// one parsed file and returns the file's directives.
func checkConventions(t *testing.T, fset *token.FileSet, f *ast.File, internal bool) []*directive {
	report := func(pos token.Pos, format string, args ...any) {
		t.Helper()
		t.Errorf("%s: "+format, append([]any{fset.Position(pos)}, args...)...)
	}
	var dirs []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body, ok := strings.CutPrefix(c.Text, "//proram:")
			if !ok {
				continue
			}
			words := strings.Fields(body)
			d := &directive{pos: c.Pos(), line: fset.Position(c.Pos()).Line}
			switch {
			case len(words) > 0 && words[0] == "invariant":
				d.kind, words = "invariant", words[1:]
			case len(words) > 1 && words[0] == "allow" && words[1] == "determinism":
				d.kind, words = "allow", words[2:]
			default:
				report(c.Pos(), "unknown directive %q: write //proram:allow determinism <reason> or //proram:invariant <reason>", c.Text)
				continue
			}
			if len(words) == 0 {
				report(c.Pos(), "%q gives no reason", c.Text)
			}
			dirs = append(dirs, d)
		}
	}
	excused := func(kind string, pos token.Pos) bool {
		line, found := fset.Position(pos).Line, false
		for _, d := range dirs {
			if d.kind == kind && (d.line == line || d.line == line-1) {
				d.used, found = true, true
			}
		}
		return found
	}

	var timeName, rngName string
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch {
		case p == "math/rand" || p == "math/rand/v2" || p == "crypto/rand" && internal:
			report(imp.Pos(), "import of %s: simulation randomness comes from a seeded proram/internal/rng source", p)
		case p == "time":
			timeName = name
		case p == "proram/internal/rng":
			rngName = name
		}
	}
	consts := make(map[string]bool)
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					consts[id.Name] = true
				}
			}
		}
	}
	var constant func(ast.Expr) bool
	constant = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.BasicLit:
			return true
		case *ast.Ident:
			return consts[e.Name]
		case *ast.ParenExpr:
			return constant(e.X)
		case *ast.UnaryExpr:
			return constant(e.X)
		case *ast.BinaryExpr:
			return constant(e.X) && constant(e.Y)
		case *ast.CallExpr: // a conversion such as uint64(42)
			id, ok := e.Fun.(*ast.Ident)
			return ok && len(e.Args) == 1 && slices.Contains([]string{"int", "int64", "uint", "uint64"}, id.Name) && constant(e.Args[0])
		}
		return false
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					report(n.Pos(), "select with a default clause: control flow would depend on goroutine scheduling")
				}
			}
		case *ast.CallExpr:
			var pkg, fn string
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				fn = fun.Name
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok {
					pkg, fn = x.Name, fun.Sel.Name
				}
			}
			switch {
			case pkg != "" && pkg == timeName && bannedTimeFuncs[fn] && !excused("allow", n.Pos()):
				report(n.Pos(), "time.%s reads the clock: justify it with //proram:allow determinism <reason>", fn)
			case internal && pkg != "" && pkg == rngName && fn == "New" && len(n.Args) == 1 && constant(n.Args[0]):
				report(n.Pos(), "rng.New with a hard-coded seed: thread the seed from the caller")
			case pkg == "" && fn == "panic" && f.Name.Name != "main" && !excused("invariant", n.Pos()):
				report(n.Pos(), "panic in library code: return an error, or justify an unreachable invariant with //proram:invariant <reason>")
			}
		}
		return true
	})
	for _, d := range dirs {
		if !d.used {
			report(d.pos, "stale //proram:%s: it excuses nothing on its line or the next", d.kind)
		}
	}
	return dirs
}
