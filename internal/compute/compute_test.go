package compute

import (
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
)

// swirlField builds a grid+field pair whose streamlines are long
// orbits, for comparing engines.
func swirlField(t testing.TB) SteadyBatch {
	t.Helper()
	g, err := grid.NewCartesian(32, 32, 16, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(31, 31, 15),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := field.NewField(32, 32, 16, field.GridCoords)
	for k := 0; k < 16; k++ {
		for j := 0; j < 32; j++ {
			for i := 0; i < 32; i++ {
				dx := (float32(i) - 15.5) / 15.5
				dy := (float32(j) - 15.5) / 15.5
				f.SetAt(i, j, k, vmath.Vec3{X: -dy * 0.1, Y: dx * 0.1, Z: 0.01})
			}
		}
	}
	return SteadyBatch{F: f, G: g}
}

func benchSeeds(n int) []vmath.Vec3 {
	seeds := make([]vmath.Vec3, n)
	for i := range seeds {
		frac := float32(i) / float32(n)
		seeds[i] = vmath.V3(8+frac*16, 12+frac*8, 2+frac*10)
	}
	return seeds
}

func engines() []Engine {
	return []Engine{
		Scalar{},
		Parallel{NumWorkers: 4},
		Parallel{NumWorkers: 7}, // 37 seeds over 7 workers leaves a short last range
	}
}

func TestEnginesAgreeOnPaths(t *testing.T) {
	s := swirlField(t)
	seeds := benchSeeds(37)
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.5, MaxSteps: 100, MinSpeed: 1e-9}
	ref, refStats := Scalar{}.Streamlines(s, seeds, 0, o)
	for _, e := range engines()[1:] {
		paths, stats := e.Streamlines(s, seeds, 0, o)
		if len(paths) != len(ref) {
			t.Fatalf("%s: %d paths, want %d", e.Name(), len(paths), len(ref))
		}
		for i := range ref {
			if len(paths[i]) != len(ref[i]) {
				t.Fatalf("%s: path %d has %d points, scalar %d",
					e.Name(), i, len(paths[i]), len(ref[i]))
			}
			for p := range ref[i] {
				if !paths[i][p].ApproxEqual(ref[i][p], 1e-4) {
					t.Fatalf("%s: path %d point %d = %v, scalar %v",
						e.Name(), i, p, paths[i][p], ref[i][p])
				}
			}
		}
		if stats.Points != refStats.Points {
			t.Errorf("%s: stats.Points = %d, scalar %d", e.Name(), stats.Points, refStats.Points)
		}
	}
}

func TestEnginesAgreeOnEuler(t *testing.T) {
	s := swirlField(t)
	seeds := benchSeeds(10)
	o := integrate.Options{Method: integrate.Euler, StepSize: 0.5, MaxSteps: 50, MinSpeed: 1e-9}
	ref, _ := Scalar{}.Streamlines(s, seeds, 0, o)
	paths, _ := Parallel{NumWorkers: 3}.Streamlines(s, seeds, 0, o)
	for i := range ref {
		if len(paths[i]) != len(ref[i]) {
			t.Fatalf("path %d: %d vs %d points", i, len(paths[i]), len(ref[i]))
		}
		for p := range ref[i] {
			if !paths[i][p].ApproxEqual(ref[i][p], 1e-4) {
				t.Fatalf("path %d point %d differs", i, p)
			}
		}
	}
}

func TestOutOfBoundsSeedsYieldEmptyPaths(t *testing.T) {
	s := swirlField(t)
	seeds := []vmath.Vec3{
		vmath.V3(-5, 0, 0),  // outside
		vmath.V3(16, 16, 8), // inside
		vmath.V3(99, 0, 0),  // outside
	}
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.5, MaxSteps: 20, MinSpeed: 1e-9}
	for _, e := range engines() {
		paths, _ := e.Streamlines(s, seeds, 0, o)
		if len(paths[0]) != 0 || len(paths[2]) != 0 {
			t.Errorf("%s: out-of-bounds seeds produced points", e.Name())
		}
		if len(paths[1]) < 2 {
			t.Errorf("%s: in-bounds seed produced no path", e.Name())
		}
	}
}

func TestStaggeredExits(t *testing.T) {
	// A uniform field marches all particles out the +X face; seeds at
	// staggered x leave at different steps.
	g, _ := grid.NewCartesian(16, 8, 8, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(15, 7, 7),
	})
	f := field.NewField(16, 8, 8, field.GridCoords)
	for i := range f.U {
		f.U[i] = 1
	}
	s := SteadyBatch{F: f, G: g}
	seeds := []vmath.Vec3{
		vmath.V3(14, 4, 4), vmath.V3(10, 4, 4), vmath.V3(2, 4, 4),
	}
	o := integrate.Options{Method: integrate.Euler, StepSize: 1, MaxSteps: 100, MinSpeed: 1e-9}
	wantLens := []int{2, 6, 14} // 1 seed point + steps until x > 15
	for _, e := range engines() {
		paths, _ := e.Streamlines(s, seeds, 0, o)
		for i, want := range wantLens {
			if len(paths[i]) != want {
				t.Errorf("%s: path %d length = %d, want %d", e.Name(), i, len(paths[i]), want)
			}
		}
	}
}

func TestParticlePathsEnginesAgree(t *testing.T) {
	s := swirlField(t)
	seeds := benchSeeds(10)
	o := integrate.Options{Method: integrate.RK2, StepSize: 1, MaxSteps: 30, MinSpeed: 1e-9}
	ref, _ := Scalar{}.ParticlePaths(s, seeds, 0, 100, o)
	for _, e := range []Engine{Parallel{NumWorkers: 3}, Parallel{}} {
		paths, _ := e.ParticlePaths(s, seeds, 0, 100, o)
		for i := range ref {
			if len(paths[i]) != len(ref[i]) {
				t.Fatalf("%s: path %d length %d vs %d", e.Name(), i, len(paths[i]), len(ref[i]))
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := swirlField(t)
	seeds := benchSeeds(5)
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.5, MaxSteps: 10, MinSpeed: 1e-9}
	paths, stats := Scalar{}.Streamlines(s, seeds, 0, o)
	var points int64
	for _, p := range paths {
		if len(p) > 0 {
			points += int64(len(p) - 1)
		}
	}
	if stats.Points != points {
		t.Errorf("stats.Points = %d, want %d", stats.Points, points)
	}
	if stats.SampleUnits != points*6 {
		t.Errorf("SampleUnits = %d, want %d (RK2: 2x3 per point)", stats.SampleUnits, points*6)
	}
	if stats.ConvertUnits != points*3 {
		t.Errorf("ConvertUnits = %d, want %d", stats.ConvertUnits, points*3)
	}
	if stats.Units() != points*9 {
		t.Errorf("Units = %d, want %d", stats.Units(), points*9)
	}
}

func TestBenchmarkWorkloadShape(t *testing.T) {
	w, err := BenchmarkWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Seeds) != BenchStreamlines {
		t.Fatalf("seeds = %d", len(w.Seeds))
	}
	r := RunBenchmark(Scalar{}, w, CostModel{})
	if !r.Complete {
		t.Error("benchmark streamlines terminated early; workload must yield full 200-point lines")
	}
	if r.Points != BenchTotalPoints {
		t.Errorf("points = %d, want %d", r.Points, BenchTotalPoints)
	}
	if r.Stats.Units() != int64(BenchTotalWorkUnits)-int64(BenchStreamlines)*9 {
		// 199 integration steps per line: seeds are free.
		t.Errorf("units = %d, want %d", r.Stats.Units(), BenchTotalWorkUnits-BenchStreamlines*9)
	}
}

func TestCostModelReproducesPaperTimes(t *testing.T) {
	// With the full 20,000-point accounting (the paper counts every
	// point, including seeds), the three calibrated models must land
	// on the paper's §5.3 benchmark times.
	stats := statsFor(BenchTotalPoints, integrate.RK2)
	cases := []struct {
		model CostModel
		want  time.Duration
		tol   time.Duration
	}{
		{ConvexScalar4, 240 * time.Millisecond, 2 * time.Millisecond},
		{ConvexVector3, 190 * time.Millisecond, 2 * time.Millisecond},
		{SGI380GT8, 135 * time.Millisecond, 2 * time.Millisecond},
	}
	for _, c := range cases {
		got := c.model.ModeledTime(stats)
		diff := got - c.want
		if diff < 0 {
			diff = -diff
		}
		if diff > c.tol {
			t.Errorf("%s modeled %v, want %v +- %v", c.model.Name, got, c.want, c.tol)
		}
	}
	// And the ordering the paper found: workstation-8 < vector-3 <
	// scalar-4.
	if !(SGI380GT8.ModeledTime(stats) < ConvexVector3.ModeledTime(stats) &&
		ConvexVector3.ModeledTime(stats) < ConvexScalar4.ModeledTime(stats)) {
		t.Error("modeled engine ordering does not match the paper")
	}
}

func TestMaxParticlesTable3(t *testing.T) {
	// Table 3 rows: benchmark seconds -> max particles at 10 fps.
	frame := 100 * time.Millisecond
	cases := []struct {
		bench time.Duration
		want  int
	}{
		{250 * time.Millisecond, 8000},
		{190 * time.Millisecond, 10526},
		{130 * time.Millisecond, 15384},
		{100 * time.Millisecond, 20000},
		{50 * time.Millisecond, 40000},
	}
	for _, c := range cases {
		got := MaxParticlesAt(c.bench, BenchTotalPoints, frame)
		if got != c.want {
			t.Errorf("MaxParticlesAt(%v) = %d, want %d", c.bench, got, c.want)
		}
	}
	if MaxParticlesAt(0, BenchTotalPoints, frame) != 0 {
		t.Error("zero bench time should yield 0")
	}
}

func TestBenchTransferBytesMatchesPaper(t *testing.T) {
	if BenchTransferBytes != 240000 {
		t.Errorf("BenchTransferBytes = %d, want 240000", BenchTransferBytes)
	}
}

func BenchmarkEngineScalar(b *testing.B)    { benchEngine(b, Scalar{}) }
func BenchmarkEngineParallel4(b *testing.B) { benchEngine(b, Parallel{NumWorkers: 4}) }

func benchEngine(b *testing.B, e Engine) {
	w, err := BenchmarkWorkload()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, _ := e.Streamlines(w.Sampler, w.Seeds, w.Time, w.Options)
		if len(paths) != BenchStreamlines {
			b.Fatal("wrong path count")
		}
	}
}

// BenchmarkEngineRake is one engine call on the benchmark's `heavy`
// shape: a 256-seed streamline rake across the wake of the small
// tapered-cylinder dataset, default options. ns/point is per path point
// after the seeds; allocs/op is the arena contract (a handful of chunks,
// not a line per seed).
func BenchmarkEngineRake(b *testing.B) {
	u, err := datasets.Analytic(datasets.Spec{NI: 32, NJ: 48, NK: 12, NumSteps: 2, DT: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	r := integrate.Rake{P0: vmath.V3(-3, 0.6, 1), P1: vmath.V3(-3, 0.6, 14), NumSeeds: 256}
	seeds := r.SeedsGrid(u.Grid)
	s := SteadyBatch{F: u.Steps[0], G: u.Grid}
	o := integrate.DefaultOptions()
	for _, e := range []Engine{Scalar{}, Parallel{}} {
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var points int64
			for i := 0; i < b.N; i++ {
				_, st := e.Streamlines(s, seeds, 0, o)
				points += st.Points
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}

// TestRangeWorkers pins when Parallel starts a goroutine: the caller is
// the first worker, every worker gets minSeedsPerWorker seeds or more,
// and an empty rake starts none.
func TestRangeWorkers(t *testing.T) {
	for _, c := range []struct{ seeds, limit, want int }{
		{0, 8, 1}, {1, 8, 1}, {minSeedsPerWorker, 8, 1}, {2*minSeedsPerWorker - 1, 8, 1},
		{2 * minSeedsPerWorker, 8, 2}, {256, 2, 2}, {256, 8, 8}, {12, 8, 3},
	} {
		if got := rangeWorkers(c.seeds, c.limit); got != c.want {
			t.Errorf("rangeWorkers(%d seeds, limit %d) = %d, want %d", c.seeds, c.limit, got, c.want)
		}
	}
	// One worker is the caller: fanOut's go statement sits in a loop over
	// the ranges after the first, so no seeds means no goroutine — and no
	// hang on a zero range size.
	for _, e := range []Engine{Scalar{}, Parallel{}, Parallel{NumWorkers: 8}} {
		paths, st := e.Streamlines(swirlField(t), nil, 0, integrate.DefaultOptions())
		if len(paths) != 0 || st != (Stats{}) {
			t.Errorf("%s on no seeds: %d paths, stats %+v", e.Name(), len(paths), st)
		}
	}
}

// TestLinesDoNotShareCapacity is the buf[a:b:b] contract: lines are
// carved from shared chunks, so each must be capped at its own length —
// appending to one reallocates it instead of overwriting the next.
func TestLinesDoNotShareCapacity(t *testing.T) {
	s := swirlField(t)
	seeds := benchSeeds(40)
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.5, MaxSteps: 30, MinSpeed: 1e-9}
	for _, e := range []Engine{Scalar{}, Parallel{NumWorkers: 3}} {
		for name, run := range map[string]func() [][]vmath.Vec3{
			"streamlines": func() [][]vmath.Vec3 { p, _ := e.Streamlines(s, seeds, 0, o); return p },
			"paths":       func() [][]vmath.Vec3 { p, _ := e.ParticlePaths(s, seeds, 0, 1000, o); return p },
		} {
			want, got := run(), run()
			for i := range got {
				if cap(got[i]) != len(got[i]) {
					t.Fatalf("%s %s: line %d has len %d cap %d", e.Name(), name, i, len(got[i]), cap(got[i]))
				}
				_ = append(got[i], vmath.V3(-1, -1, -1))
			}
			for i := range want {
				for p := range want[i] {
					if got[i][p] != want[i][p] {
						t.Fatalf("%s %s: appending to a neighbour overwrote line %d point %d", e.Name(), name, i, p)
					}
				}
			}
		}
	}
}
