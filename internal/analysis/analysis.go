// Package analysis is vwlint's in-tree static-analysis framework: a
// zero-dependency go/parser + go/types driver in the style of
// golang.org/x/tools/go/analysis, carrying the four project-specific
// analyzers (wallclock, lockdiscipline, hotpath, maporder) that turn
// the frame pipeline's conventions — injected clocks, *Locked mutex
// discipline, allocation-free hot paths, byte-deterministic iteration —
// into compile-time checks. Each is kept for a defect no test catches;
// its fixture carries that defect. Beside them, two checks read the
// whole program at once: Unreachable (an exported name under internal/
// that no other package's product code uses is a finding) and
// Program.Check, which holds the module to its structural rule table,
// Rules.
//
// The framework is deliberately small: an Analyzer is a named Run
// function over a typechecked package (Pass), diagnostics are
// filtered through the //vw: directive comments before they reach the
// driver, and fixtures are validated by the analysistest subpackage's
// "// want" markers. Everything here builds with the standard library
// only, keeping the repo zero-dep.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant check. Run inspects the package
// held by the Pass and reports findings via Pass.Reportf; directive
// suppression (//vw:allow) is applied by the framework afterwards, so
// analyzers report every violation they see.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //vw:allow <name> annotations.
	Name string
	// Doc is a one-line description shown by vwlint's usage text.
	Doc string
	// Run performs the analysis.
	Run func(*Pass)
}

// A Pass holds one typechecked package plus the parsed //vw:
// directives, and collects the diagnostics an analyzer reports.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info
	// Directives holds the parsed //vw: comments for the package.
	Directives *Directives
	// Class is the package's classification, derived once from the
	// directives (see classify). Analyzers gate on it instead of
	// keeping private package lists.
	Class Class

	diags []Diagnostic
}

// A Diagnostic is one reported violation, positioned for editors.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Message  string
	Analyzer string
}

// String renders the diagnostic in the conventional
// file:line:col: message [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// reportf records a diagnostic at pos. Suppression by //vw:allow and
// the test-file filter happen later, in Run.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// All returns the four vwlint analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{wallclock, lockDiscipline, hotPath, mapOrder}
}

// A Package is one loaded, typechecked package ready to be analyzed.
type Package struct {
	Types      *types.Package
	Fset       *token.FileSet
	Files      []*ast.File
	Info       *types.Info
	Directives *Directives
}

// Run applies one analyzer to a loaded package and returns the
// diagnostics that survive directive suppression, sorted by position.
// Findings in _test.go files are dropped entirely: tests legitimately
// use wall clocks, raw allocation, and direct handler calls.
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Info:       pkg.Info,
		Directives: pkg.Directives,
		Class:      classify(pkg.Directives),
	}
	a.Run(pass)
	var out []Diagnostic
	for _, d := range pass.diags {
		if !isTestFile(d.Position.Filename) && !pkg.Directives.allowed(a.Name, d.Position) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders diagnostics by position.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

func isTestFile(name string) bool {
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
