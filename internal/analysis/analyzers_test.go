package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// analyzer returns the analyzer of All() called name.
func analyzer(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, a := range analysis.All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q in All()", name)
	return nil
}

func TestWallclock(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t, "wallclock"), "wallclock")
}

// TestWallclockOptIn proves the analyzer is gated on the
// //vw:deterministic directive: the _off fixture uses time.Now freely
// and must draw no findings.
func TestWallclockOptIn(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t, "wallclock"), "wallclock_off")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t, "lockdiscipline"), "lockdiscipline")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t, "hotpath"), "hotpath")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t, "maporder"), "maporder")
}

// TestAnalyzerFixtures is the tripwire for untested analyzers: every
// analyzer in All() must ship a fixture package under testdata/src/
// with at least one flagged case (a "// want" marker) and at least
// one suppressed case (an "//vw:allow <name>" annotation), so a
// future analyzer cannot land without exercising both paths.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range analysis.All() {
		dir := filepath.Join("testdata", "src", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no fixture directory %s: %v", a.Name, dir, err)
			continue
		}
		var wants, allows int
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			wants += strings.Count(string(src), "// want ")
			allows += strings.Count(string(src), "//vw:allow "+a.Name)
		}
		if wants == 0 {
			t.Errorf("analyzer %s: fixture %s has no \"// want\" markers (no flagged case)", a.Name, dir)
		}
		if allows == 0 {
			t.Errorf("analyzer %s: fixture %s has no //vw:allow %s annotation (no suppressed case)", a.Name, dir, a.Name)
		}
	}
}
