package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package of the module.
type Package struct {
	Path string // import path, e.g. "proram/internal/oram"
	Rel  string // module-relative path, "" for the module root package
	Dir  string
	Name string // package name ("main" for commands)

	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Directives []*Directive
}

// Program is a loaded module: every package (plus any explicitly
// requested extra directories, which is how the test fixtures under
// testdata are brought in), type-checked in dependency order against a
// shared FileSet.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string
	Packages   []*Package // dependency order

	// SecretFields records every struct field declared with a
	// //proram:secret directive, across all loaded packages. The oblivious
	// pass treats reads of these fields as taint sources.
	SecretFields map[types.Object]bool

	byPath map[string]*Package

	// Lazily built interprocedural state, shared by the passes that need
	// whole-program views (the call graph and the function summaries
	// derived from it). The analyzer runs on one goroutine, so "built
	// once" is a nil check.
	cg     *CallGraph
	sums   *summaries
	allocs *allocSummaries
}

// relPosition renders a position module-relative with forward slashes,
// so diagnostic messages referring to other files are byte-identical
// across checkouts and operating systems.
func (p *Program) relPosition(pos token.Pos) string {
	pp := p.Fset.Position(pos)
	name := pp.Filename
	if rel, err := filepath.Rel(p.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", name, pp.Line)
}

// ModulePackages returns the packages that belong to the module proper,
// excluding anything under a testdata directory (analysis fixtures).
func (p *Program) ModulePackages() []*Package {
	var out []*Package
	for _, pkg := range p.Packages {
		if strings.Contains(pkg.Rel, "testdata") {
			continue
		}
		out = append(out, pkg)
	}
	return out
}

// PackageAt returns the package rooted at the given module-relative
// directory ("" or "." for the root package), or nil.
func (p *Program) PackageAt(rel string) *Package {
	if rel == "." {
		rel = ""
	}
	return p.byPath[path.Join(p.ModulePath, filepath.ToSlash(rel))]
}

// Load parses and type-checks every package of the module rooted at
// root (the directory containing go.mod). Directories named testdata are
// skipped by the walk; pass them via extraDirs to load fixtures.
// Standard-library imports are type-checked from GOROOT source, so the
// loader works with nothing but the stdlib toolchain.
func Load(root string, extraDirs ...string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, d := range extraDirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, abs)
	}
	seen := make(map[string]bool)

	prog := &Program{
		Fset:         token.NewFileSet(),
		ModulePath:   modPath,
		Root:         root,
		SecretFields: make(map[types.Object]bool),
		byPath:       make(map[string]*Package),
	}
	var parsed []*Package
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		pkg, err := prog.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		if prev, dup := prog.byPath[pkg.Path]; dup {
			return nil, fmt.Errorf("analysis: duplicate package %s (%s and %s)", pkg.Path, prev.Dir, pkg.Dir)
		}
		prog.byPath[pkg.Path] = pkg
		parsed = append(parsed, pkg)
	}

	order, err := prog.dependencyOrder(parsed)
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(prog.Fset, "source", nil)
	for _, pkg := range order {
		if err := prog.typeCheck(pkg, std); err != nil {
			return nil, err
		}
	}
	prog.Packages = order
	return prog, nil
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: cannot read %s (run from the module root): %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// packageDirs walks the module and returns every directory that may hold
// a package, skipping testdata, hidden and underscore-prefixed trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory. It returns nil
// if the directory holds no such files.
func (p *Program) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	rel, err := filepath.Rel(p.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	pkg := &Package{
		Path: path.Join(p.ModulePath, filepath.ToSlash(rel)),
		Rel:  filepath.ToSlash(rel),
		Dir:  dir,
	}
	for _, n := range names {
		file, err := parser.ParseFile(p.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = file.Name.Name
		} else if pkg.Name != file.Name.Name {
			return nil, fmt.Errorf("analysis: %s holds two packages (%s and %s)", dir, pkg.Name, file.Name.Name)
		}
		pkg.Files = append(pkg.Files, file)
		pkg.Directives = append(pkg.Directives, parseDirectives(p.Fset, file)...)
	}
	return pkg, nil
}

// dependencyOrder topologically sorts packages along their intra-module
// imports so each package is type-checked after its dependencies.
func (p *Program) dependencyOrder(pkgs []*Package) ([]*Package, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[*Package]int)
	var order []*Package
	var visit func(pkg *Package, from string) error
	visit = func(pkg *Package, from string) error {
		switch state[pkg] {
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s (from %s)", pkg.Path, from)
		case done:
			return nil
		}
		state[pkg] = visiting
		for _, imp := range pkg.importPaths() {
			if dep, ok := p.byPath[imp]; ok {
				if err := visit(dep, pkg.Path); err != nil {
					return err
				}
			} else if imp == p.ModulePath || strings.HasPrefix(imp, p.ModulePath+"/") {
				return fmt.Errorf("analysis: %s imports %s, which is not in the module", pkg.Path, imp)
			}
		}
		state[pkg] = done
		order = append(order, pkg)
		return nil
	}
	for _, pkg := range pkgs {
		if err := visit(pkg, "the command line"); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// importPaths returns the deduplicated import paths of all files.
func (pkg *Package) importPaths() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// moduleImporter resolves module-internal imports from the already
// type-checked packages and everything else from GOROOT source.
type moduleImporter struct {
	prog *Program
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.prog.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s imported before it was type-checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over one parsed package and harvests its
// //proram:secret field markers.
func (p *Program) typeCheck(pkg *Package, std types.Importer) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: &moduleImporter{prog: p, std: std}}
	tpkg, err := conf.Check(pkg.Path, p.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	p.collectSecretFields(pkg)
	return nil
}

// collectSecretFields records struct fields annotated //proram:secret.
func (p *Program) collectSecretFields(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldMarkedSecret(field) {
					continue
				}
				for _, name := range field.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						p.SecretFields[obj] = true
					}
				}
			}
			return true
		})
	}
}

// fieldMarkedSecret reports whether a //proram:secret directive is
// attached to the field as a doc or trailing comment.
func fieldMarkedSecret(field *ast.Field) bool {
	for _, g := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, DirectivePrefix+"secret") {
				return true
			}
		}
	}
	return false
}
