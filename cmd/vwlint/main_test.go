package main

import (
	"bytes"
	"encoding/json"
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
// runStandalone resolves the module root from the working directory.
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

const hostileModSrc = `// Package hostile exercises hostilecount through the drivers.
//
//vw:wire
package hostile

import "encoding/binary"

func Bad(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return make([]byte, n)
}

func Allowed(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return make([]byte, n) //vw:allow hostilecount -- test: trusted in-process peer
}
`

func TestRunJSON(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod":             "module tmpmod\n\ngo 1.22\n",
		"hostile/hostile.go": hostileModSrc,
	})
	chdir(t, mod)

	var out, errBuf bytes.Buffer
	code := run([]string{"-json", "./..."}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (one unsuppressed finding); stderr: %s", code, errBuf.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2 (flagged + allowed): %+v", len(findings), findings)
	}
	var allowed, flagged int
	for _, f := range findings {
		if f.Analyzer != "hostilecount" {
			t.Errorf("analyzer = %q, want hostilecount", f.Analyzer)
		}
		if f.File != filepath.Join("hostile", "hostile.go") {
			t.Errorf("file = %q, want module-relative hostile/hostile.go", f.File)
		}
		if f.Line == 0 || f.Col == 0 {
			t.Errorf("finding missing position: %+v", f)
		}
		if !strings.Contains(f.Message, "wire-decoded count") {
			t.Errorf("message = %q, want the hostilecount wording", f.Message)
		}
		if f.Allowed {
			allowed++
		} else {
			flagged++
		}
	}
	if allowed != 1 || flagged != 1 {
		t.Errorf("allowed/flagged = %d/%d, want 1/1 — -json must ship suppressed findings too", allowed, flagged)
	}
}

func TestRunStats(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod":             "module tmpmod\n\ngo 1.22\n",
		"hostile/hostile.go": hostileModSrc,
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
		"wallclock", "lockdiscipline", "hotpath",
		"maporder", "codecparity", "hostilecount", "total",
	} {
		if !strings.Contains(got, name) {
			t.Errorf("stats output missing %q:\n%s", name, got)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("stats line %q not `name count`", line)
		}
		switch f[0] {
		case "hostilecount", "total":
			if f[1] != "1" {
				t.Errorf("%s = %s, want 1", f[0], f[1])
			}
		default:
			if f[1] != "0" {
				t.Errorf("%s = %s, want 0", f[0], f[1])
			}
		}
	}
}

// probeSrc trips the three second-generation analyzers once each and
// suppresses a second maporder site, so one module proves both that
// findings flow through the driver and that //vw:allow survives the
// trip.
const probeSrc = `// Package probe exercises the v2 analyzers end to end.
//
//vw:deterministic
//vw:wire
package probe

import "encoding/binary"

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

type Blip struct{ A uint32 }

func EncodeBlip(dst []byte, b Blip) []byte {
	return binary.LittleEndian.AppendUint32(dst, b.A)
}

func Grow(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	return make([]byte, n)
}
`

// TestDriversRoundTrip builds the real binary and runs it over the
// module, asserting each of the three analyzers reports once and the
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
		for _, tag := range []string{"[maporder]", "[codecparity]", "[hostilecount]"} {
			if n := strings.Count(stderr.String(), tag); n != 1 {
				t.Errorf("%s findings = %d, want exactly 1 (the //vw:allow site must be suppressed):\n%s", tag, n, stderr.String())
			}
		}
	})
}
