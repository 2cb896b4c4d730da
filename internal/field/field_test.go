package field

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/vmath"
)

func testGrid(t testing.TB) *grid.Grid {
	t.Helper()
	g, err := grid.NewCartesian(8, 8, 8, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(7, 7, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomField(ni, nj, nk int, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	f := NewField(ni, nj, nk, Physical)
	for i := range f.U {
		f.U[i] = rng.Float32()*4 - 2
		f.V[i] = rng.Float32()*4 - 2
		f.W[i] = rng.Float32()*4 - 2
	}
	return f
}

func TestFieldAtSetAt(t *testing.T) {
	f := NewField(4, 5, 6, Physical)
	want := vmath.V3(1, -2, 3)
	f.SetAt(2, 3, 4, want)
	if got := f.At(2, 3, 4); got != want {
		t.Errorf("At = %v, want %v", got, want)
	}
	if got := f.At(0, 0, 0); got != (vmath.Vec3{}) {
		t.Errorf("unset node = %v, want zero", got)
	}
}

func TestFieldSizeBytes(t *testing.T) {
	// Table 2 row 1: the 131,072-point tapered cylinder timestep is
	// 1,572,864 bytes.
	f := NewField(64, 64, 32, Physical)
	if got := f.SizeBytes(); got != 1572864 {
		t.Errorf("SizeBytes = %d, want 1572864", got)
	}
}

func TestFieldSampleAtNodes(t *testing.T) {
	g := testGrid(t)
	f := randomField(8, 8, 8, 1)
	for _, node := range [][3]int{{0, 0, 0}, {3, 4, 5}, {7, 7, 7}} {
		gc := vmath.V3(float32(node[0]), float32(node[1]), float32(node[2]))
		got := f.Sample(g, gc)
		want := f.At(node[0], node[1], node[2])
		if !got.ApproxEqual(want, 1e-5) {
			t.Errorf("Sample(%v) = %v, want %v", gc, got, want)
		}
	}
}

func TestFieldValidate(t *testing.T) {
	f := randomField(4, 4, 4, 2)
	if err := f.Validate(); err != nil {
		t.Errorf("valid field rejected: %v", err)
	}
	f.V[7] = float32(math.Inf(-1))
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted Inf")
	}
	f2 := randomField(4, 4, 4, 3)
	f2.W = f2.W[:5]
	if err := f2.Validate(); err == nil {
		t.Error("Validate accepted short array")
	}
}

func TestFieldClone(t *testing.T) {
	f := randomField(4, 4, 4, 4)
	c := f.Clone()
	c.U[0] = 99
	if f.U[0] == 99 {
		t.Error("Clone shares storage with original")
	}
	if c.Coords != f.Coords || c.NI != f.NI {
		t.Error("Clone lost metadata")
	}
}

func TestMaxSpeed(t *testing.T) {
	f := NewField(3, 3, 3, Physical)
	f.SetAt(1, 1, 1, vmath.V3(3, 4, 0)) // |v| = 5
	if got := f.MaxSpeed(); absf(got-5) > 1e-5 {
		t.Errorf("MaxSpeed = %v, want 5", got)
	}
	if got := NewField(2, 2, 2, Physical).MaxSpeed(); got != 0 {
		t.Errorf("zero field MaxSpeed = %v", got)
	}
}

func TestToGridCoordsCartesianSpacing(t *testing.T) {
	// A Cartesian grid spanning [0,14]^3 with 8 nodes/axis has
	// physical spacing 2 per index, so grid-coordinate velocity is
	// physical velocity / 2.
	g, err := grid.NewCartesian(8, 8, 8, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(14, 14, 14),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewField(8, 8, 8, Physical)
	for i := range f.U {
		f.U[i], f.V[i], f.W[i] = 2, 4, -6
	}
	if err := ToGridCoords(f, g); err != nil {
		t.Fatal(err)
	}
	if f.Coords != GridCoords {
		t.Error("converted field not marked GridCoords")
	}
	want := vmath.V3(1, 2, -3)
	for _, node := range [][3]int{{1, 1, 1}, {4, 5, 6}, {6, 6, 6}} {
		got := f.At(node[0], node[1], node[2])
		if !got.ApproxEqual(want, 1e-3) {
			t.Errorf("node %v converted velocity %v, want %v", node, got, want)
		}
	}
}

func TestToGridCoordsRejects(t *testing.T) {
	g := testGrid(t)
	f := NewField(4, 4, 4, Physical)
	if err := ToGridCoords(f, g); err == nil {
		t.Error("dimension mismatch accepted")
	}
	f2 := NewField(8, 8, 8, GridCoords)
	if err := ToGridCoords(f2, g); err == nil {
		t.Error("double conversion accepted")
	}
}

func TestUnsteadyValidation(t *testing.T) {
	g := testGrid(t)
	steps := []*Field{randomField(8, 8, 8, 5), randomField(8, 8, 8, 6)}
	u, err := NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSteps() != 2 {
		t.Errorf("NumSteps = %d", u.NumSteps())
	}
	if _, err := NewUnsteady(g, nil, 0.1); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewUnsteady(g, steps, 0); err == nil {
		t.Error("zero dt accepted")
	}
	bad := []*Field{randomField(8, 8, 8, 7), randomField(4, 4, 4, 8)}
	if _, err := NewUnsteady(g, bad, 0.1); err == nil {
		t.Error("mismatched timestep accepted")
	}
}

// TestForEachStepRunsEveryStepOnceAndReportsTheLowestError runs the
// step pool at several worker counts: every step runs exactly once, and
// of several failing steps the lowest-numbered one's error comes back
// whatever order the workers finished in.
func TestForEachStepRunsEveryStepOnceAndReportsTheLowestError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		const n = 40
		var runs [n]atomic.Int32
		err := ForEachStep(n, func(s int) error {
			runs[s].Add(1)
			if s == 9 || s == 17 || s == 33 {
				return fmt.Errorf("step %d", s)
			}
			return nil
		})
		if err == nil || err.Error() != "step 9" {
			t.Errorf("procs=%d: error %v, want step 9", procs, err)
		}
		for s := range runs {
			if got := runs[s].Load(); got != 1 {
				t.Fatalf("procs=%d: step %d ran %d times", procs, s, got)
			}
		}
		if err := ForEachStep(0, func(int) error { return fmt.Errorf("ran") }); err != nil {
			t.Errorf("procs=%d: empty range: %v", procs, err)
		}
	}
}

// TestUnsteadyToGridCoordsInPlace converts a dataset in place: every
// step is the per-field conversion of its physical input, bit for bit,
// and a second conversion names timestep 0 at any worker count.
func TestUnsteadyToGridCoordsInPlace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := testGrid(t)
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		var steps, want []*Field
		for s := int64(0); s < 6; s++ {
			f := randomField(8, 8, 8, 20+s)
			steps = append(steps, f)
			w := f.Clone()
			if err := ToGridCoords(w, g); err != nil {
				t.Fatal(err)
			}
			want = append(want, w)
		}
		u, err := NewUnsteady(g, steps, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.ToGridCoords(); err != nil {
			t.Fatal(err)
		}
		for s := range steps {
			if u.Steps[s] != steps[s] {
				t.Fatalf("procs=%d: step %d was replaced, not converted in place", procs, s)
			}
			sameFieldBits(t, fmt.Sprintf("step %d", s), u.Steps[s], want[s])
		}
		err = u.ToGridCoords()
		if err == nil || err.Error() != "field: timestep 0: field: already in grid coordinates" {
			t.Errorf("procs=%d: second conversion: %v", procs, err)
		}
	}
}

func TestUnsteadyStepClamping(t *testing.T) {
	g := testGrid(t)
	steps := []*Field{randomField(8, 8, 8, 9), randomField(8, 8, 8, 10)}
	u, _ := NewUnsteady(g, steps, 0.1)
	if u.Step(-5) != steps[0] {
		t.Error("negative step not clamped to first")
	}
	if u.Step(99) != steps[1] {
		t.Error("overflow step not clamped to last")
	}
}

func TestSampleAtTimeInterpolates(t *testing.T) {
	g := testGrid(t)
	f0 := NewField(8, 8, 8, GridCoords)
	f1 := NewField(8, 8, 8, GridCoords)
	for i := range f0.U {
		f0.U[i] = 1
		f1.U[i] = 3
	}
	u, _ := NewUnsteady(g, []*Field{f0, f1}, 0.1)
	gc := vmath.V3(3.5, 3.5, 3.5)
	if got := u.SampleAtTime(gc, 0.5); absf(got.X-2) > 1e-5 {
		t.Errorf("midpoint sample = %v, want U=2", got)
	}
	if got := u.SampleAtTime(gc, -1); absf(got.X-1) > 1e-5 {
		t.Errorf("before-start sample = %v, want U=1", got)
	}
	if got := u.SampleAtTime(gc, 10); absf(got.X-3) > 1e-5 {
		t.Errorf("after-end sample = %v, want U=3", got)
	}
}

func TestUnsteadySizeBytesMatchesPaper(t *testing.T) {
	// "Each timestep consists of about one and a half megabytes of
	// velocity data" — the 64x64x32 timestep is 1,572,864 bytes, and
	// the full 800-step dataset is 800x that.
	g, err := grid.NewTaperedCylinder(grid.DefaultTaperedCylinder())
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*Field, 3)
	for i := range steps {
		steps[i] = NewField(g.NI, g.NJ, g.NK, GridCoords)
	}
	u, err := NewUnsteady(g, steps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.SizeBytes(); got != 3*1572864 {
		t.Errorf("SizeBytes = %d, want %d", got, 3*1572864)
	}
}

func TestFieldRoundTrip(t *testing.T) {
	f := randomField(5, 6, 7, 11)
	f.Coords = GridCoords
	var buf bytes.Buffer
	if err := WriteField(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadField(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NI != 5 || got.NJ != 6 || got.NK != 7 || got.Coords != GridCoords {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range f.U {
		if got.U[i] != f.U[i] || got.V[i] != f.V[i] || got.W[i] != f.W[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestFieldRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		orig := randomField(3, 4, 5, seed)
		var buf bytes.Buffer
		if err := WriteField(&buf, orig); err != nil {
			return false
		}
		got, err := ReadField(&buf)
		if err != nil {
			return false
		}
		for i := range orig.U {
			if got.U[i] != orig.U[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGridRoundTrip(t *testing.T) {
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 8, NJ: 10, NK: 4, R0: 1, R1: 0.5, Router: 6, Span: 4, Stretch: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NI != g.NI || got.NJ != g.NJ || got.NK != g.NK {
		t.Fatalf("dims mismatch")
	}
	for i := range g.X {
		if got.X[i] != g.X[i] || got.Y[i] != g.Y[i] || got.Z[i] != g.Z[i] {
			t.Fatalf("coords mismatch at %d", i)
		}
	}
}

func TestReadFieldRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, c := range cases {
		if _, err := ReadField(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
		if _, err := ReadGrid(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: grid garbage accepted", i)
		}
	}
}

func TestReadFieldRejectsHugeDims(t *testing.T) {
	var buf bytes.Buffer
	f := NewField(2, 2, 2, Physical)
	if err := WriteField(&buf, f); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt NI to an absurd value.
	b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadField(bytes.NewReader(b)); err == nil {
		t.Error("huge dims accepted")
	}
}

func TestReadFieldTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteField(&buf, randomField(4, 4, 4, 12)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadField(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Error("truncated payload accepted")
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkFieldSample(b *testing.B) {
	g := testGrid(b)
	f := randomField(8, 8, 8, 13)
	gc := vmath.V3(3.3, 4.7, 2.1)
	b.ResetTimer()
	var sink vmath.Vec3
	for i := 0; i < b.N; i++ {
		sink = f.Sample(g, gc)
	}
	_ = sink
}

func BenchmarkWriteField(b *testing.B) {
	f := randomField(64, 64, 32, 14)
	b.SetBytes(f.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(int(f.SizeBytes()) + 64)
		if err := WriteField(&buf, f); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPLOT3DGridRoundTrip(t *testing.T) {
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 6, NJ: 8, NK: 4, R0: 1, R1: 0.5, Router: 5, Span: 4, Stretch: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePLOT3DGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Header: 3 int32 + payload 3*4*N bytes.
	want := 12 + 3*4*g.NumNodes()
	if buf.Len() != want {
		t.Errorf("plot3d grid file %d bytes, want %d", buf.Len(), want)
	}
	got, err := ReadPLOT3DGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NI != g.NI || got.NJ != g.NJ || got.NK != g.NK {
		t.Fatal("dims mismatch")
	}
	for i := range g.X {
		if got.X[i] != g.X[i] || got.Y[i] != g.Y[i] || got.Z[i] != g.Z[i] {
			t.Fatalf("coords mismatch at %d", i)
		}
	}
}

func TestPLOT3DFunctionRoundTrip(t *testing.T) {
	f := randomField(5, 6, 4, 77)
	var buf bytes.Buffer
	if err := WritePLOT3DFunction(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPLOT3DFunction(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coords != Physical {
		t.Error("plot3d velocities not physical")
	}
	for i := range f.U {
		if got.U[i] != f.U[i] || got.V[i] != f.V[i] || got.W[i] != f.W[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestPLOT3DRejectsGarbage(t *testing.T) {
	if _, err := ReadPLOT3DGrid(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short grid accepted")
	}
	if _, err := ReadPLOT3DFunction(bytes.NewReader(bytes.Repeat([]byte{0xff}, 32))); err == nil {
		t.Error("absurd function dims accepted")
	}
	// Wrong variable count.
	var buf bytes.Buffer
	hdr := []int32{4, 4, 4, 5}
	for _, v := range hdr {
		buf.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	if _, err := ReadPLOT3DFunction(&buf); err == nil {
		t.Error("5-variable function accepted as velocity")
	}
}
