package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //proram: comment. The supported kinds are:
//
//	//proram:allow <check>[,<check>...] <reason>   suppress findings
//	//proram:invariant <justification>             justify a library panic
//	//proram:public <reason>                       declassify a value
//	//proram:secret                                mark a struct field as secret
//	//proram:hotpath <reason>                      demand an allocation-free function
//	//proram:detround <reason>                     determinism guaranteed by the round barrier
//	//proram:fixedtrip <reason>                    demand a provably fixed loop trip count
//	//proram:branchless <reason>                   demand a secret-branch-free function
//
// An allow or public directive applies to the line it sits on and to the
// line immediately below it (so it can be written either as a trailing
// comment or on its own line above the flagged statement). Directives
// written before the package clause apply to the whole file.
type Directive struct {
	Kind   string   // "allow", "invariant", "public", "secret", or unrecognized text
	Checks []string // allow only: the checks being suppressed
	Reason string   // free-text justification

	Pos       token.Pos
	File      string
	Line      int
	FileScope bool

	used bool // set when the directive suppressed at least one finding
}

// DirectivePrefix introduces every machine-readable comment.
const DirectivePrefix = "//proram:"

// parseDirectives extracts every //proram: comment from a parsed file.
func parseDirectives(fset *token.FileSet, f *ast.File) []*Directive {
	var out []*Directive
	pkgLine := fset.Position(f.Package).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			d := &Directive{Pos: c.Pos(), File: pos.Filename, Line: pos.Line, FileScope: pos.Line <= pkgLine}
			body := strings.TrimPrefix(c.Text, DirectivePrefix)
			kind, rest, _ := strings.Cut(body, " ")
			d.Kind = kind
			rest = strings.TrimSpace(rest)
			if kind == "allow" {
				list, reason, _ := strings.Cut(rest, " ")
				for _, check := range strings.Split(list, ",") {
					if check = strings.TrimSpace(check); check != "" {
						d.Checks = append(d.Checks, check)
					}
				}
				d.Reason = strings.TrimSpace(reason)
			} else {
				d.Reason = rest
			}
			out = append(out, d)
		}
	}
	return out
}

// allowDirectiveFor returns an in-scope allow directive naming check at
// (file, line): same line, the line above, or file scope.
func (p *Package) allowDirectiveFor(check, file string, line int) *Directive {
	for _, d := range p.Directives {
		if d.Kind != "allow" || d.File != file {
			continue
		}
		if !d.FileScope && d.Line != line && d.Line != line-1 {
			continue
		}
		for _, c := range d.Checks {
			if c == check {
				return d
			}
		}
	}
	return nil
}

// directiveAt returns a directive of the given kind scoped to (file,
// line): same line or the line above.
func (p *Package) directiveAt(kind, file string, line int) *Directive {
	for _, d := range p.Directives {
		if d.Kind == kind && d.File == file && (d.Line == line || d.Line == line-1) {
			return d
		}
	}
	return nil
}

// marked returns the directive of the given kind attached to the
// node's declaration: anywhere in its doc comment, or on the line of
// the func keyword itself. (gofmt folds a comment line directly above a
// declaration into its doc comment, so "the line above" is covered.)
func (n *CGNode) marked(prog *Program, kind string) *Directive {
	declPos := prog.Fset.Position(n.Decl.Pos())
	start := declPos.Line
	if n.Decl.Doc != nil && len(n.Decl.Doc.List) > 0 {
		start = prog.Fset.Position(n.Decl.Doc.Pos()).Line
	}
	for _, d := range n.Pkg.Directives {
		if d.Kind == kind && d.File == declPos.Filename && d.Line >= start && d.Line <= declPos.Line {
			return d
		}
	}
	return nil
}
