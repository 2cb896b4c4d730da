package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datasets"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.txt from this vwbench")

const paperPath = "testdata/paper.txt"

// TestRunPinsPaper: everything vwbench prints is testdata/paper.txt and
// every figure it writes is the checked-in figures/*.ppm, byte for byte.
func TestRunPinsPaper(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, dir); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(paperPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(paperPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout differs from %s (rerun with -update after a deliberate change):\n%s", paperPath, out.Bytes())
	}
	for _, name := range figureFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkedIn, err := os.ReadFile(filepath.Join("..", "..", "figures", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, checkedIn) {
			t.Errorf("regenerated %s differs from figures/%s (%d vs %d bytes)", name, name, len(got), len(checkedIn))
		}
	}
}

// TestGoldenFigures pins the FNV-64a of the checked-in figures 1-3, so
// a damaged checked-in file cannot pass TestRunPinsPaper by being
// regenerated from a wrong renderer.
func TestGoldenFigures(t *testing.T) {
	for name, want := range map[string]string{
		"fig1_streaklines.ppm":    "af92e13e0ce95121",
		"fig2_streamlines_t0.ppm": "4712d7af66dbae1b",
		"fig3_streamlines_t1.ppm": "31f1520c1a5e4c04",
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", "figures", name))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("figures/%s: hash %s, pinned %s", name, got, want)
		}
	}
}

func TestFiguresProduceImages(t *testing.T) {
	u, err := datasets.Analytic(datasets.Spec{NI: 16, NJ: 24, NK: 8, NumSteps: 8, DT: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	f1, err := figure1(u, filepath.Join(dir, "fig1.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if f1.lit < 100 {
		t.Errorf("figure 1 nearly empty: %d lit pixels", f1.lit)
	}
	f2, err := figure2(u, filepath.Join(dir, "fig2.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if f2.lit < 100 || f2.lines < 5 {
		t.Errorf("figure 2 thin: %+v", f2)
	}
	f3, div, err := figure3(u, filepath.Join(dir, "fig3.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if f3.lit < 100 {
		t.Errorf("figure 3 thin: %+v", f3)
	}
	// The figure 2/3 pair demonstrates unsteadiness: same seeds,
	// visibly different geometry.
	if div < 0.05 {
		t.Errorf("fig2/fig3 paths nearly identical (divergence %v); flow not unsteady", div)
	}
}
