package datasets

import (
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/vmath"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{NI: 8, NJ: 8, NK: 4, NumSteps: 2, DT: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{NI: 1, NJ: 8, NK: 4, NumSteps: 2, DT: 0.5},
		{NI: 8, NJ: 8, NK: 4, NumSteps: 0, DT: 0.5},
		{NI: 8, NJ: 8, NK: 4, NumSteps: 2, DT: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestAnalyticDataset(t *testing.T) {
	u, err := Analytic(Spec{NI: 12, NJ: 16, NK: 6, NumSteps: 4, DT: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSteps() != 4 {
		t.Fatalf("steps = %d", u.NumSteps())
	}
	if u.Steps[0].Coords != field.GridCoords {
		t.Error("dataset not in grid coordinates")
	}
	for i, s := range u.Steps {
		if err := s.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// Unsteady: step 0 and step 3 differ somewhere in the wake.
	diff := false
	for i := range u.Steps[0].U {
		if u.Steps[0].U[i] != u.Steps[3].U[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("analytic dataset is steady")
	}
}

func TestSolverDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	var progressCalls int
	u, err := Solver(
		Spec{NI: 10, NJ: 12, NK: 5, NumSteps: 3, DT: 0.4},
		SolverOptions{Resolution: 24, SpinupSteps: 10, Progress: func(step, total int) {
			progressCalls++
			if total != 3 {
				t.Errorf("progress total = %d", total)
			}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSteps() != 3 || progressCalls != 3 {
		t.Fatalf("steps=%d progress=%d", u.NumSteps(), progressCalls)
	}
	for i, s := range u.Steps {
		if err := s.Validate(); err != nil {
			t.Fatalf("step %d invalid: %v", i, err)
		}
	}
	// The sampled flow must be moving (inflow-driven): some node has
	// nontrivial velocity.
	var maxLen float32
	for i := range u.Steps[0].U {
		v := vmath.Vec3{X: u.Steps[0].U[i], Y: u.Steps[0].V[i], Z: u.Steps[0].W[i]}
		if v.Len() > maxLen {
			maxLen = v.Len()
		}
	}
	if maxLen < 0.01 {
		t.Errorf("solver dataset nearly static: max grid-velocity %v", maxLen)
	}
}

func TestSolverRejectsBadSpec(t *testing.T) {
	if _, err := Solver(Spec{}, SolverOptions{}); err == nil {
		t.Error("zero spec accepted")
	}
}

// BenchmarkAnalytic times the analytic generator's two layers on the
// benchmark's two datasets, in ns per node-step: sample is
// AnalyticPhysical, the model at every node of every step; convert is
// the in-place grid-coordinate conversion Analytic runs on its result,
// the fresh grid's metric included, timed apart from the sampling.
func BenchmarkAnalytic(b *testing.B) {
	for _, s := range []Spec{
		{NI: 32, NJ: 48, NK: 12, NumSteps: 24, DT: 0.6},
		{NI: 64, NJ: 96, NK: 24, NumSteps: 32, DT: 0.6},
	} {
		nodeSteps := float64(s.NI * s.NJ * s.NK * s.NumSteps)
		perNodeStep := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(nodeSteps*float64(b.N)), "ns/node-step")
		}
		name := fmt.Sprintf("%dx%dx%dx%d", s.NI, s.NJ, s.NK, s.NumSteps)
		b.Run(name+"/sample", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AnalyticPhysical(s); err != nil {
					b.Fatal(err)
				}
			}
			perNodeStep(b)
		})
		b.Run(name+"/convert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u, err := AnalyticPhysical(s)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := u.ToGridCoords(); err != nil {
					b.Fatal(err)
				}
			}
			perNodeStep(b)
		})
	}
}
