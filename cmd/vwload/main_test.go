package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/store"
)

// small keeps every run short: a few unpaced workstations on a
// three-step synthetic dataset.
var small = []string{"-sessions", "4", "-frames", "3", "-fps", "0", "-steps", "3"}

// reportLabels are the labels of vwload's report lines; each run prints
// a line once or not at all.
var reportLabels = []string{
	"per-session rate:", "rounds computed=", "latency:", "governor:",
	"shared tools:", "timestep cache:", "cluster:", "tier leaf", "tier mid",
	"pipeline:",
}

// TestRunReportLines pins vwload's report: for each regime the lines
// it prints today, each exactly once, and no line of another regime.
func TestRunReportLines(t *testing.T) {
	always := []string{"per-session rate:", "rounds computed=", "latency:", "pipeline:"}
	for _, tc := range []struct {
		name  string
		args  []string
		lines []string
	}{
		{"direct v2", []string{"-resident", "-codec", "2"}, nil},
		{"two relay hops", []string{"-resident", "-relays", "2", "-hops", "2"}, []string{"cluster:", "tier leaf", "tier mid"}},
		{"tools", []string{"-resident", "-tools", "2"}, []string{"shared tools:"}},
		{"budget", []string{"-resident", "-budget", "50ms"}, []string{"governor:"}},
		{"disk with a cache", []string{"-resident=false", "-cachesteps", "2"}, []string{"timestep cache:"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(append([]string(nil), small...), tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			want := map[string]int{}
			for _, l := range append(append([]string(nil), always...), tc.lines...) {
				want[l] = 1
			}
			for _, l := range reportLabels {
				if got := strings.Count(out.String(), l); got != want[l] {
					t.Errorf("%q printed %d times, want %d", l, got, want[l])
				}
			}
			if t.Failed() {
				t.Logf("report:\n%s", &out)
			}
		})
	}
}

// TestRunVerdict is the exit status: -maxdropped decides whether a run
// with dead workstations fails. Two of eight sessions are reset on
// their first op, a quarter of the samples.
func TestRunVerdict(t *testing.T) {
	faulty := func(i int) *netsim.FaultPlan {
		if i >= 2 {
			return nil
		}
		return &netsim.FaultPlan{Faults: []netsim.Fault{{Kind: netsim.FaultReset, AtOp: 1}}}
	}
	verdict := func(maxDropped string) (string, error) {
		c, err := parseFlags([]string{"-resident", "-sessions", "8", "-frames", "4", "-fps", "0",
			"-steps", "3", "-maxdropped", maxDropped})
		if err != nil {
			t.Fatal(err)
		}
		c.load.SessionFault = faulty
		var out bytes.Buffer
		err = c.run(&out)
		return out.String(), err
	}
	out, err := verdict("0.5")
	if err != nil {
		t.Fatalf("25%% dropped under -maxdropped 0.5: %v", err)
	}
	if !strings.Contains(out, "dropped 8/32 latency samples") {
		t.Errorf("tolerated drops not reported:\n%s", out)
	}
	if out, err = verdict("0"); err == nil {
		t.Fatal("25% dropped under -maxdropped 0 returned nil")
	}
	if !strings.Contains(out, "pipeline:") {
		t.Errorf("a failed run still prints its report:\n%s", out)
	}
}

// TestRunFailedSetup: a scene that cannot be built is an error and no
// report — not an all-zero one.
func TestRunFailedSetup(t *testing.T) {
	dir := t.TempDir()
	if err := store.WriteDataset(dir, testDataset(t, 3).Unsteady()); err != nil {
		t.Fatal(err)
	}
	// The setup round integrates a timestep, and they are all gone.
	steps, err := filepath.Glob(filepath.Join(dir, "step_*"))
	if err != nil || len(steps) != 3 {
		t.Fatalf("step files %v: %v", steps, err)
	}
	for _, f := range steps {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	err = run([]string{"-data", dir, "-sessions", "2", "-frames", "2", "-fps", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "setup") {
		t.Fatalf("run = %v, want a setup error", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed setup printed a report:\n%s", &out)
	}
}
