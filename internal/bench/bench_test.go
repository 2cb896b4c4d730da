package bench

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
)

// smallSpec keeps test runs fast.
func smallSpec() DatasetSpec {
	return DatasetSpec{NI: 16, NJ: 24, NK: 8, NumSteps: 8, DT: 0.6}
}

func buildSmall(t testing.TB) *field.Unsteady {
	t.Helper()
	u, err := BuildDataset(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	tab := Table1()
	// Rows 1-2 match the paper to the digit. Row 3's bandwidth column
	// prints the self-consistent 11.444 MB/s; the paper's 9.537 does
	// not follow its own 12-bytes-per-point arithmetic (see
	// EXPERIMENTS.md).
	want := [][]string{
		{"10000", "120000", "1.144"},
		{"50000", "600000", "5.722"},
		{"100000", "1200000", "11.444"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range want {
		for j, cell := range row {
			if tab.Rows[i][j] != cell {
				t.Errorf("row %d col %d = %q, want %q", i, j, tab.Rows[i][j], cell)
			}
		}
	}
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	tab := Table2()
	// Bytes column: row 2 prints 5,242,872 (436,906 x 12); the paper
	// rounds to 5,242,880 (= 5 x 2^20 exactly, since "436,906" is
	// itself 5 MB / 12 rounded). Row 5 prints 120,000,000; the paper's
	// 360,000,000 uses 36 bytes/point, inconsistent with its own
	// 12-bytes-per-point rule (see EXPERIMENTS.md).
	wantBytes := []string{"1572864", "5242872", "12000000", "36000000", "120000000"}
	wantSteps := []string{"682", "204", "89", "29", "8"}
	for i := range tab.Rows {
		if tab.Rows[i][1] != wantBytes[i] {
			t.Errorf("row %d bytes = %s, want %s", i, tab.Rows[i][1], wantBytes[i])
		}
		if tab.Rows[i][2] != wantSteps[i] {
			t.Errorf("row %d steps/GB = %s, want %s", i, tab.Rows[i][2], wantSteps[i])
		}
	}
	// Required bandwidth: first two rows match the paper (15, 50).
	if !strings.HasPrefix(tab.Rows[0][3], "15.0") {
		t.Errorf("tapered cylinder bandwidth = %s, want 15", tab.Rows[0][3])
	}
	if !strings.HasPrefix(tab.Rows[1][3], "50.0") {
		t.Errorf("current max bandwidth = %s, want 50", tab.Rows[1][3])
	}
}

func TestTable3MatchesPaperExactly(t *testing.T) {
	tab := Table3()
	want := [][2]string{
		{"8000", "40"},
		{"10526", "52"},
		{"15384", "76"},
		{"20000", "100"},
		{"40000", "200"},
	}
	for i, w := range want {
		if tab.Rows[i][1] != w[0] || tab.Rows[i][2] != w[1] {
			t.Errorf("row %d = %v, want %v", i, tab.Rows[i][1:], w)
		}
	}
}

func TestEngineBenchOrdering(t *testing.T) {
	tab, err := EngineBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Parse modeled times; ordering must be scalar4 > vector3 > sgi8.
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return d
	}
	scalar4 := parse(tab.Rows[0][3])
	vector3 := parse(tab.Rows[1][3])
	sgi8 := parse(tab.Rows[2][3])
	if !(sgi8 < vector3 && vector3 < scalar4) {
		t.Errorf("modeled ordering broken: sgi8=%v vector3=%v scalar4=%v", sgi8, vector3, scalar4)
	}
	// Absolute modeled values ~ paper's 0.135/0.19/0.24 s.
	within := func(got time.Duration, want time.Duration) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= 5*time.Millisecond
	}
	if !within(scalar4, 240*time.Millisecond) || !within(vector3, 190*time.Millisecond) ||
		!within(sgi8, 135*time.Millisecond) {
		t.Errorf("modeled times %v %v %v, want ~240ms/190ms/135ms", scalar4, vector3, sgi8)
	}
	// The paper's proposed hybrid (groups across processors,
	// vectorized within) would beat both Convex configurations they
	// actually built, reclaiming the fourth processor.
	hybrid := parse(tab.Rows[3][3])
	if hybrid >= vector3 {
		t.Errorf("hybrid modeled %v not faster than vector3 %v", hybrid, vector3)
	}
}

func TestTable1MeasuredShape(t *testing.T) {
	if testing.Short() {
		t.Skip("network measurement")
	}
	tab, err := Table1Measured(3)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: the 1 MB/s link cannot sustain 10 fps for 10k particles
	// (needs 1.144 MB/s); the 13 MB/s link can.
	byKey := map[string]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = row[3]
	}
	if byKey["10000/ultranet-actual (1 MB/s)"] != "no" {
		t.Errorf("1 MB/s link sustained 10k particles at 10fps; paper says it cannot")
	}
	if byKey["10000/ultranet-vme (13 MB/s)"] != "yes" {
		t.Errorf("13 MB/s link failed 10k particles at 10fps")
	}
	if byKey["100000/ultranet-actual (1 MB/s)"] != "no" {
		t.Errorf("1 MB/s link sustained 100k particles")
	}
}

func TestFiguresProduceImages(t *testing.T) {
	u := buildSmall(t)
	dir := t.TempDir()

	f1, err := Figure1(u, filepath.Join(dir, "fig1.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if f1.LitPixels < 100 {
		t.Errorf("figure 1 nearly empty: %d lit pixels", f1.LitPixels)
	}
	f2, err := Figure2(u, filepath.Join(dir, "fig2.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if f2.LitPixels < 100 || f2.Lines < 5 {
		t.Errorf("figure 2 thin: %+v", f2)
	}
	f3, div, err := Figure3(u, filepath.Join(dir, "fig3.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if f3.LitPixels < 100 {
		t.Errorf("figure 3 thin: %+v", f3)
	}
	// The figure 2/3 pair demonstrates unsteadiness: same seeds,
	// visibly different geometry.
	if div < 0.05 {
		t.Errorf("fig2/fig3 paths nearly identical (divergence %v); flow not unsteady", div)
	}
}

func TestFig8PrefetchWins(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive pipeline measurement")
	}
	u := buildSmall(t)
	// Throttle so loads cost ~10ms each: timestep is
	// 16*24*8*12 = 36,864 bytes; 3 MB/s gives ~12 ms. The measurement
	// is wall-clock on a shared box, so allow up to three attempts —
	// prefetch must win at least once and must never lose by much.
	var lastSync, lastPre time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		tab, err := Fig8Pipeline(u, 3<<20, 10)
		if err != nil {
			t.Fatal(err)
		}
		sync, err := time.ParseDuration(tab.Rows[0][1])
		if err != nil {
			t.Fatal(err)
		}
		pre, err := time.ParseDuration(tab.Rows[1][1])
		if err != nil {
			t.Fatal(err)
		}
		if pre < sync {
			return // overlap won
		}
		lastSync, lastPre = sync, pre
	}
	t.Errorf("prefetch (%v) never beat synchronous (%v) in 3 attempts", lastPre, lastSync)
}

func TestFig9RenderOutrunsNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive loop measurement")
	}
	u := buildSmall(t)
	tab, err := Fig9Client(u, 20*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	ratioStr := strings.TrimSuffix(tab.Rows[2][1], "x")
	ratio, err := strconv.ParseFloat(ratioStr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 2 {
		t.Errorf("render/network ratio %v < 2", ratio)
	}
}

func TestFig67RemoteIOWorks(t *testing.T) {
	u := buildSmall(t)
	tab, err := Fig67DlibIO(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationIntegrators(t *testing.T) {
	tab, err := AblationIntegrators()
	if err != nil {
		t.Fatal(err)
	}
	drift := func(row int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][2], 64)
		if err != nil {
			t.Fatalf("parse drift %q: %v", tab.Rows[row][2], err)
		}
		if v < 0 {
			v = -v
		}
		return v
	}
	euler, rk2, rk4 := drift(0), drift(1), drift(2)
	if rk2 >= euler {
		t.Errorf("RK2 drift %v not better than Euler %v", rk2, euler)
	}
	if rk4 > rk2 {
		t.Errorf("RK4 drift %v worse than RK2 %v", rk4, rk2)
	}
}

// TestAblationGridCoordsFaster compares each strategy's best of five
// runs: one single-shot timing against another flakes on a shared host,
// where either run can lose the CPU.
func TestAblationGridCoordsFaster(t *testing.T) {
	u := buildSmall(t)
	gridT, physT := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		tab, err := AblationGridCoords(u, 500)
		if err != nil {
			t.Fatal(err)
		}
		g, err := time.ParseDuration(tab.Rows[0][1])
		if err != nil {
			t.Fatal(err)
		}
		p, err := time.ParseDuration(tab.Rows[1][1])
		if err != nil {
			t.Fatal(err)
		}
		gridT, physT = min(gridT, g), min(physT, p)
	}
	if gridT*2 > physT {
		t.Errorf("grid-coord integration (%v) not clearly faster than point location (%v)",
			gridT, physT)
	}
}

func TestAblationEncoding(t *testing.T) {
	tab := AblationEncoding(10000)
	if tab.Rows[0][2] != "120000" {
		t.Errorf("3-D row bytes = %s", tab.Rows[0][2])
	}
	if tab.Rows[2][2] != "160000" {
		t.Errorf("stereo row bytes = %s", tab.Rows[2][2])
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table1()
	s := tab.String()
	if !strings.Contains(s, "Table 1") || !strings.Contains(s, "120000") {
		t.Errorf("formatted table missing content:\n%s", s)
	}
}

func TestAblationIsosurfaceReproducesExclusion(t *testing.T) {
	// The paper's Sec 1.2 rule: streamlines fit the 1/8 s budget on
	// the 1992 machine, isosurfaces do not.
	tab, err := AblationIsosurface()
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Rows[0][3]; got != "yes" {
		t.Errorf("streamlines fit = %q, want yes", got)
	}
	if got := tab.Rows[1][3]; got != "no" {
		t.Errorf("isosurface fit = %q, want no", got)
	}
}

func TestMultiblockBench(t *testing.T) {
	tab, err := MultiblockBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}
