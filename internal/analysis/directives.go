package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// vwlint's directive comments. All share the //vw: prefix (no space
// after //, matching Go's //go: convention so godoc hides them):
//
//	//vw:deterministic
//	    Package-level opt-in (anywhere in the package, conventionally
//	    at the end of the package doc comment): the wallclock analyzer
//	    checks every non-test file of the package.
//
//	//vw:hotpath
//	    On a function's doc comment: the hotpath analyzer flags
//	    allocation sources inside the function body.
//
//	//vw:wire
//	    Package-level opt-in: the package encodes, decodes, or routes
//	    protocol bytes, so the maporder analyzer applies.
//
//	//vw:testonly
//	    On a declaration's doc comment (a func, a type, a const or var
//	    group or one spec of it): the exported names it declares are
//	    test infrastructure, exempt from the reachability pass
//	    (Unreachable), which instead requires that no other package's
//	    non-test code uses them.
//
//	//vw:allow <name>[,<name>...] [-- reason]
//	    Suppresses the named analyzers' findings on the same line and
//	    the line below. On a function's doc comment it suppresses the
//	    whole function body (used sparingly; prefer line-level allows).
//	    Names must be known analyzers (or "directive"); a typo'd name
//	    is itself reported rather than silently suppressing nothing.
const (
	dirPrefix        = "//vw:"
	dirAllow         = "allow"
	dirHotpath       = "hotpath"
	dirDeterministic = "deterministic"
	dirWire          = "wire"
	dirTestonly      = "testonly"
)

// Directives is the parsed //vw: state for one package.
type Directives struct {
	// Deterministic reports whether the package opted in to the
	// determinism analyzers (wallclock, maporder) via
	// //vw:deterministic.
	Deterministic bool
	// Wire reports whether the package opted in to the wire-facing
	// analyzer (maporder) via //vw:wire.
	Wire bool

	hotpath  []*ast.FuncDecl
	allows   map[string][]allowSite
	testonly map[token.Pos]bool // the name idents of //vw:testonly declarations

	// Bad holds malformed //vw: comments (unknown verb, empty allow
	// list); the driver reports them so typos cannot silently disable
	// a check.
	Bad []Diagnostic
}

// An allowSite is one //vw:allow occurrence. A plain comment covers
// its own line and the next; a function-doc comment covers the whole
// body line range [line, endLine].
type allowSite struct {
	file    string
	line    int
	endLine int // 0 for a plain line-site
}

// parseDirectives scans every comment in files and returns the
// package's directive state.
func parseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{allows: make(map[string][]allowSite), testonly: make(map[token.Pos]bool)}
	for _, f := range files {
		// Function-doc directives get body-wide scope.
		fnDoc := make(map[*ast.Comment]*ast.FuncDecl)
		declDoc := make(map[*ast.Comment][]*ast.Ident) // the names a doc comment's declaration declares
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				for _, c := range commentList(decl.Doc) {
					fnDoc[c] = decl
					declDoc[c] = []*ast.Ident{decl.Name}
				}
			case *ast.GenDecl:
				var all []*ast.Ident
				for _, spec := range decl.Specs {
					names, doc := specNames(spec)
					all = append(all, names...)
					for _, c := range commentList(doc) {
						declDoc[c] = names
					}
				}
				for _, c := range commentList(decl.Doc) {
					declDoc[c] = all
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, dirPrefix)
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				switch verb {
				case dirDeterministic:
					d.Deterministic = true
				case dirWire:
					d.Wire = true
				case dirTestonly:
					names := declDoc[c]
					if len(names) == 0 {
						d.bad(c, pos, "//vw:testonly must be part of a declaration's doc comment")
					}
					for _, id := range names {
						d.testonly[id.Pos()] = true
					}
				case dirHotpath:
					if fn := fnDoc[c]; fn != nil {
						d.hotpath = append(d.hotpath, fn)
					} else {
						d.bad(c, pos, "//vw:hotpath must be part of a function's doc comment")
					}
				case dirAllow:
					names := allowNames(rest)
					if len(names) == 0 {
						d.bad(c, pos, "//vw:allow needs at least one analyzer name")
						continue
					}
					site := allowSite{file: pos.Filename, line: pos.Line}
					if fn := fnDoc[c]; fn != nil && fn.Body != nil {
						site.endLine = fset.Position(fn.Body.End()).Line
					}
					for _, n := range names {
						if !knownAllowNames[n] {
							d.bad(c, pos, "//vw:allow names unknown analyzer %q (known: %s)", n, knownAllowList)
							continue
						}
						d.allows[n] = append(d.allows[n], site)
					}
				default:
					d.bad(c, pos, "unknown directive //vw:%s", verb)
				}
			}
		}
	}
	return d
}

func commentList(cg *ast.CommentGroup) []*ast.Comment {
	if cg == nil {
		return nil
	}
	return cg.List
}

// specNames returns the names a const, var or type spec declares and
// its own doc comment.
func specNames(spec ast.Spec) ([]*ast.Ident, *ast.CommentGroup) {
	switch spec := spec.(type) {
	case *ast.ValueSpec:
		return spec.Names, spec.Doc
	case *ast.TypeSpec:
		return []*ast.Ident{spec.Name}, spec.Doc
	}
	return nil, nil
}

func (d *Directives) bad(c *ast.Comment, pos token.Position, format string, args ...any) {
	d.Bad = append(d.Bad, Diagnostic{
		Pos:      c.Pos(),
		Position: pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: "directive",
	})
}

// allowNames splits the argument of //vw:allow: comma- or
// space-separated analyzer names, with everything after a bare "--"
// treated as free-form rationale.
func allowNames(rest string) []string {
	rest, _, _ = strings.Cut(rest, "--")
	return strings.FieldsFunc(rest, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t'
	})
}

// knownAllowNames is the set of analyzer names //vw:allow may refer
// to, plus "directive" for the malformed-directive diagnostics
// themselves. A misspelled name would otherwise suppress nothing and
// say nothing — the worst kind of lint rot.
var knownAllowNames, knownAllowList = func() (map[string]bool, string) {
	m := map[string]bool{"directive": true}
	var names []string
	for _, a := range All() {
		m[a.Name] = true
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return m, strings.Join(names, ", ")
}()

// AllowCounts returns the number of //vw:allow sites per analyzer
// name in this package, for the driver's -stats mode. A single
// comment naming two analyzers counts once for each.
func (d *Directives) AllowCounts() map[string]int {
	out := make(map[string]int, len(d.allows))
	for name, sites := range d.allows {
		out[name] = len(sites)
	}
	return out
}

// hotpathFuncs returns the functions marked //vw:hotpath.
func (d *Directives) hotpathFuncs() []*ast.FuncDecl { return d.hotpath }

// allowed reports whether an //vw:allow for analyzer name covers the
// diagnostic position: same line, directly above it, or anywhere in a
// function whose doc carries the allow.
func (d *Directives) allowed(name string, pos token.Position) bool {
	for _, s := range d.allows[name] {
		if s.file != pos.Filename {
			continue
		}
		if s.endLine > 0 {
			if pos.Line >= s.line && pos.Line <= s.endLine {
				return true
			}
			continue
		}
		if pos.Line == s.line || pos.Line == s.line+1 {
			return true
		}
	}
	return false
}
