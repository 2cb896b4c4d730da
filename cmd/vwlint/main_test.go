package main

import (
	"bytes"
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
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("stats line %q not `name count`", line)
		}
		switch f[0] {
		case "wallclock", "total":
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
