// Package analysistest validates vwlint analyzers against fixture
// packages, in the style of golang.org/x/tools/go/analysis/analysistest
// but using only the standard library: fixture sources live under
// testdata/src/<pkg>/, and expected findings are written as trailing
// comments of the form
//
//	s.count = 3 // want `guarded by s\.mu`
//
// Each `// want` comment carries one quoted regular expression per
// expected diagnostic on that line; a fixture line with no want
// comment must produce no diagnostics (so fixtures also prove that
// directives suppress and that clean idioms stay clean).
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads testdata/src/<pkg>, applies the analyzer, and compares
// surviving diagnostics against the fixture's want comments.
//
//vw:testonly
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	loader := analysis.NewLoader("", "")
	p, err := loader.LoadDir(dir, pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	if p == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	for _, bad := range p.Directives.Bad {
		t.Errorf("fixture %s: %s", pkg, bad)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rxs, err := parseWants(rest)
				if err != nil {
					t.Fatalf("%s: bad want comment: %v", pos, err)
				}
				k := key{pos.Filename, pos.Line}
				wants[k] = append(wants[k], rxs...)
			}
		}
	}

	for _, d := range analysis.Run(a, p) {
		k := key{d.Position.Filename, d.Position.Line}
		matched := false
		for i, rx := range wants[k] {
			if rx != nil && rx.MatchString(d.Message) {
				wants[k][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, rxs := range wants {
		for _, rx := range rxs {
			if rx != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, rx)
			}
		}
	}
}

// parseWants pulls the sequence of quoted regexps off a want comment.
func parseWants(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, err
		}
		raw, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		rx, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, rx)
		s = s[len(q):]
	}
}
