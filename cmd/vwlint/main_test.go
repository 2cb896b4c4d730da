package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway Go module for the driver to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// chdir moves the process into dir for the duration of the test;
// run resolves the module root from the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// statsModSrc carries one //vw:allow, so the stats report has one
// nonzero row.
const statsModSrc = `// Package stats exercises -stats through the driver.
//
//vw:deterministic
package stats

import "time"

func Stamp() time.Time {
	return time.Now() //vw:allow wallclock -- test: obs-only timestamp
}
`

func TestRunStats(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod":         "module tmpmod\n\ngo 1.22\n",
		"stats/stats.go": statsModSrc,
	})
	chdir(t, mod)

	var out, errBuf bytes.Buffer
	code := run([]string{"-stats", "./..."}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stats never fails the build); stderr: %s", code, errBuf.String())
	}
	got := out.String()
	// Every analyzer is listed even at zero so trends diff cleanly.
	for _, name := range []string{
		"wallclock", "lockdiscipline", "hotpath", "maporder", "total",
	} {
		if !strings.Contains(got, name) {
			t.Errorf("stats output missing %q:\n%s", name, got)
		}
	}
	kinds := 0
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("stats line %q not `name count`", line)
		}
		switch {
		case strings.HasPrefix(f[0], "rule:"):
			kinds++
			if f[1] == "0" {
				t.Errorf("%s lists a rule kind with no rows", line)
			}
		case f[0] == "wallclock" || f[0] == "total":
			if f[1] != "1" {
				t.Errorf("%s = %s, want 1", f[0], f[1])
			}
		default:
			if f[1] != "0" {
				t.Errorf("%s = %s, want 0", f[0], f[1])
			}
		}
	}
	// Then the rule table's rows, by kind.
	if kinds != 6 {
		t.Errorf("%d rule kinds listed, want 6:\n%s", kinds, got)
	}
}

// probeSrc trips wallclock and maporder once each and suppresses a
// second maporder site, so one module proves both that findings flow
// through the driver and that //vw:allow survives the trip.
const probeSrc = `// Package probe exercises the analyzers end to end.
//
//vw:deterministic
package probe

import "time"

func Stamp() time.Time { return time.Now() }

func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func NamesAllowed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //vw:allow maporder -- test: order scrambled downstream
	}
	return out
}
`

// TestDriversRoundTrip builds the real binary and runs it over the
// module, asserting each tripped analyzer reports once and the
// //vw:allow suppresses.
func TestDriversRoundTrip(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "vwlint")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vwlint: %v\n%s", err, out)
	}
	mod := writeModule(t, map[string]string{
		"go.mod":         "module tmpmod\n\ngo 1.22\n",
		"probe/probe.go": probeSrc,
	})

	t.Run("standalone", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = mod
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("standalone exit = %v, want 1; stderr:\n%s", err, stderr.String())
		}
		for _, tag := range []string{"[wallclock]", "[maporder]"} {
			if n := strings.Count(stderr.String(), tag); n != 1 {
				t.Errorf("%s findings = %d, want exactly 1 (the //vw:allow site must be suppressed):\n%s", tag, n, stderr.String())
			}
		}
	})
}

// reachMod is a module for the reachability pass: one package under
// internal/ whose exported names meet each rule, and the callers that
// do or do not count for them.
var reachMod = map[string]string{
	"go.mod": "module tmpmod\n\ngo 1.22\n",
	"internal/lib/lib.go": `// Package lib holds one case per reachability rule.
package lib

func Orphan() {}

func Local() int { return 1 }

func helper() int { return Local() }

// ForTests is exported for another package's tests.
//
//vw:testonly
func ForTests() {}

// Stale claims to be for tests, but cmd/tool calls it.
//
//vw:testonly
func Stale() {}

func FromCmd() {}

func FromBench() {}

func FromTest() {}

type T struct{}

func NewT() T { return T{} }

func (T) String() string { return "t" }

func (T) Unused() {}
`,
	"internal/other/other.go":      "package other\n",
	"internal/other/other_test.go": "package other\n\nimport (\n\t\"testing\"\n\n\t\"tmpmod/internal/lib\"\n)\n\nfunc TestUse(t *testing.T) { lib.FromTest(); lib.ForTests() }\n",
	"cmd/tool/main.go":             "package main\n\nimport (\n\t\"fmt\"\n\n\t\"tmpmod/internal/lib\"\n)\n\nfunc main() { lib.FromCmd(); lib.Stale(); fmt.Println(lib.NewT()) }\n",
	"benchmark/bench.go":           "package bench\n\nimport \"tmpmod/internal/lib\"\n\nfunc Run() { lib.FromBench() }\n",
}

// TestReachability runs vwlint over reachMod: each row names a
// declaration in internal/lib/lib.go and the finding it must draw at
// its file:line, or "" for none.
func TestReachability(t *testing.T) {
	chdir(t, writeModule(t, reachMod))
	var out, errBuf bytes.Buffer
	if code := run([]string{"./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errBuf.String())
	}
	got := errBuf.String()
	src := strings.Split(reachMod["internal/lib/lib.go"], "\n")
	wanted := 0
	for _, row := range []struct {
		name, decl, want string
	}{
		{"no caller", "func Orphan(", "func Orphan has no product caller"},
		{"own package only", "func Local(", "func Local is used only inside its own package"},
		{"testonly exempts", "func ForTests(", ""},
		{"testonly with a product caller", "func Stale(", "func Stale is marked //vw:testonly but another package's non-test code uses it"},
		{"cmd caller counts", "func FromCmd(", ""},
		{"benchmark caller counts", "func FromBench(", ""},
		{"test caller does not count", "func FromTest(", "func FromTest has no product caller"},
		{"type in a used signature", "type T ", ""},
		{"interface method exempts", "func (T) String(", ""},
		{"method with no caller", "func (T) Unused(", "method T.Unused has no product caller"},
	} {
		line := 0
		for i, l := range src {
			if strings.HasPrefix(l, row.decl) {
				line = i + 1
			}
		}
		if line == 0 {
			t.Fatalf("%s: no %q in the fixture", row.name, row.decl)
		}
		if row.want != "" {
			wanted++
		}
		at := fmt.Sprintf("internal/lib/lib.go:%d:", line)
		var findings []string
		for _, l := range strings.Split(got, "\n") {
			if strings.HasPrefix(l, at) {
				findings = append(findings, l)
			}
		}
		switch {
		case row.want == "" && len(findings) > 0:
			t.Errorf("%s: want no finding at %s, got %q", row.name, at, findings)
		case row.want != "" && (len(findings) != 1 || !strings.Contains(findings[0], row.want+" [reachable]")):
			t.Errorf("%s: want %q at %s, got %q", row.name, row.want, at, findings)
		}
	}
	if n := strings.Count(got, "[reachable]"); n != wanted {
		t.Errorf("%d reachability findings, want %d:\n%s", n, wanted, got)
	}
}
