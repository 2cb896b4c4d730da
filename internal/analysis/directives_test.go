package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *Directives) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, ParseDirectives(fset, []*ast.File{f})
}

func TestDirectiveParsing(t *testing.T) {
	src := `// Package p is deterministic.
//
//vw:deterministic
package p

//vw:hotpath
func hot() {
	_ = 1 //vw:allow wallclock,hotpath -- both names, one comment
}
`
	_, d := parseOne(t, src)
	if !d.Deterministic {
		t.Error("//vw:deterministic in package doc not detected")
	}
	if len(d.HotpathFuncs()) != 1 || d.HotpathFuncs()[0].Name.Name != "hot" {
		t.Errorf("hotpath funcs = %v, want [hot]", d.HotpathFuncs())
	}
	if len(d.Bad) != 0 {
		t.Errorf("unexpected bad directives: %v", d.Bad)
	}
	pos := token.Position{Filename: "dir.go", Line: 8}
	for _, name := range []string{"wallclock", "hotpath"} {
		if !d.Allowed(name, pos) {
			t.Errorf("line 8 should be allowed for %s", name)
		}
	}
	if d.Allowed("lockdiscipline", pos) {
		t.Error("unlisted analyzer must not be allowed")
	}
	// The line-above form covers the next line only.
	if d.Allowed("wallclock", token.Position{Filename: "dir.go", Line: 10}) {
		t.Error("allow must not leak past the next line")
	}
}

func TestDirectiveWire(t *testing.T) {
	src := `// Package p speaks the wire format.
//
//vw:wire
//vw:deterministic
package p
`
	_, d := parseOne(t, src)
	if !d.Wire {
		t.Error("//vw:wire in package doc not detected")
	}
	if !d.Deterministic {
		t.Error("//vw:deterministic stacked under //vw:wire not detected")
	}
	c := Classify(d)
	if !c.WireFacing || !c.Deterministic {
		t.Errorf("Classify = %+v, want WireFacing+Deterministic", c)
	}
}

// TestDirectiveUnknownAllowName proves a typo in an allow list is
// itself a finding: //vw:allow for an analyzer that does not exist
// must surface as a bad directive, not silently suppress nothing.
func TestDirectiveUnknownAllowName(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //vw:allow maporderr -- typo'd analyzer name
}
`
	_, d := parseOne(t, src)
	if len(d.Bad) != 1 {
		t.Fatalf("bad directives = %d, want 1: %v", len(d.Bad), d.Bad)
	}
	if !strings.Contains(d.Bad[0].Message, `unknown analyzer "maporderr"`) {
		t.Errorf("bad[0] = %q, want unknown-analyzer message", d.Bad[0].Message)
	}
	// The typo'd name must not register as an active allow site.
	if d.Allowed("maporderr", token.Position{Filename: "dir.go", Line: 4}) {
		t.Error("unknown analyzer name must not create an allow site")
	}
	// A mixed list keeps the valid names and reports only the bogus one.
	src2 := `package p

func g() {
	_ = 1 //vw:allow wallclock,bogus,maporder -- one bad apple
}
`
	_, d2 := parseOne(t, src2)
	if len(d2.Bad) != 1 || !strings.Contains(d2.Bad[0].Message, `"bogus"`) {
		t.Fatalf("bad = %v, want exactly one complaint about %q", d2.Bad, "bogus")
	}
	pos := token.Position{Filename: "dir.go", Line: 4}
	if !d2.Allowed("wallclock", pos) || !d2.Allowed("maporder", pos) {
		t.Error("valid names in a mixed list must still suppress")
	}
}

func TestAllowCounts(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //vw:allow wallclock,maporder -- two names, one site
	_ = 2 //vw:allow maporder -- second maporder site
}
`
	_, d := parseOne(t, src)
	counts := d.AllowCounts()
	if counts["wallclock"] != 1 || counts["maporder"] != 2 {
		t.Errorf("AllowCounts = %v, want wallclock:1 maporder:2", counts)
	}
}

func TestDirectiveBadVerbs(t *testing.T) {
	src := `package p

//vw:alow wallclock
func a() {}

func b() {
	_ = 1 //vw:allow
}

//vw:hotpath
var notAFunc = 1
`
	_, d := parseOne(t, src)
	if len(d.Bad) != 3 {
		t.Fatalf("bad directives = %d, want 3: %v", len(d.Bad), d.Bad)
	}
	for i, want := range []string{"unknown directive", "needs at least one analyzer", "doc comment"} {
		if !strings.Contains(d.Bad[i].Message, want) {
			t.Errorf("bad[%d] = %q, want substring %q", i, d.Bad[i].Message, want)
		}
	}
}
