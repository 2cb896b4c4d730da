package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// openDisk writes u to a temp directory and opens it.
func openDisk(t *testing.T, u *field.Unsteady) *Disk {
	t.Helper()
	dir := t.TempDir()
	if err := WriteDataset(dir, u); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskStepIsReadOnly: a step LoadStep served is the file's mapping,
// read-only, so a write into it faults instead of changing what every
// other reader of the step sees.
func TestDiskStepIsReadOnly(t *testing.T) {
	d := openDisk(t, makeDataset(t, 2))
	f, err := d.LoadStep(1)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(interface{ Addr() uintptr }); !ok {
				t.Errorf("a write into a served step: recovered %v, want a memory fault", r)
			}
		}()
		f.V[3] = 42
	}()
	checkStep(t, f, 1)
	if f.V[3] != 0 {
		t.Errorf("the faulted write left V[3] = %v", f.V[3])
	}
}

// runFinalizers collects garbage and waits until the finalizers that
// collection queued have run: the second sentinel is queued after the
// first one's batch, so it runs only once that batch is done.
func runFinalizers() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(done) })
		runtime.GC()
		<-done
	}
}

// waitMapped collects garbage until d maps at most steps step files,
// and fails the test if that takes more than a few seconds.
func waitMapped(t *testing.T, d *Disk, steps int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runFinalizers()
		n, bytes := d.Mapped()
		if n <= steps {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d steps (%d bytes) still mapped, want at most %d", n, bytes, steps)
		}
	}
}

// TestDiskReleasesDroppedSteps: a served step stays mapped while its
// field is referenced, however often the collector runs, and its
// mapping is released once nothing references it — after a cache's
// eviction too, which drops the cache's reference and nothing else.
func TestDiskReleasesDroppedSteps(t *testing.T) {
	const numSteps = 4
	d := openDisk(t, makeDataset(t, numSteps))
	held := make([]*field.Field, numSteps)
	for s := range held {
		var err error
		if held[s], err = d.LoadStep(s); err != nil {
			t.Fatal(err)
		}
	}
	runFinalizers()
	if n, bytes := d.Mapped(); n != numSteps || bytes != numSteps*held[0].FileSize() {
		t.Fatalf("Mapped() = %d steps, %d bytes with every step held; want %d, %d",
			n, bytes, numSteps, numSteps*held[0].FileSize())
	}
	for s, f := range held {
		checkStep(t, f, float32(s))
	}
	held = nil
	waitMapped(t, d, 0)

	c, err := NewCache(d, CacheOptions{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < numSteps; s++ {
		if _, err := c.LoadStep(s); err != nil {
			t.Fatal(err)
		}
	}
	waitMapped(t, d, 1)
	checkStep(t, mustLoad(t, c, numSteps-1), numSteps-1)
	runtime.KeepAlive(c)
}

// TestDiskMappedStepBitsAreTheFile: a mapped step holds the bits the
// heap reader (field.ReadFieldPayload, every other host's path) reads
// from the same file, NaN payloads and signed zeros included.
func TestDiskMappedStepBitsAreTheFile(t *testing.T) {
	g, err := grid.NewCartesian(5, 4, 3, vmath.AABB{Max: vmath.V3(4, 3, 2)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(49))
	f := field.NewField(5, 4, 3, field.Physical)
	for _, comp := range [][]float32{f.U, f.V, f.W} {
		for i := range comp {
			comp[i] = math.Float32frombits(rng.Uint32())
		}
	}
	f.U[0], f.V[0] = float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00001)
	u, err := field.NewUnsteady(g, []*field.Field{f}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d := openDisk(t, u)
	mapped, err := d.LoadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Mapped(); n != 1 {
		t.Fatalf("Mapped() = %d steps, want the one loaded", n)
	}
	sf, err := os.Open(filepath.Join(d.dir, stepFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	read, err := field.ReadFieldHeader(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := field.ReadFieldPayload(sf, read); err != nil {
		t.Fatal(err)
	}
	if mapped.NI != read.NI || mapped.NJ != read.NJ || mapped.NK != read.NK || mapped.Coords != read.Coords {
		t.Fatalf("mapped header %dx%dx%d %v, read %dx%dx%d %v",
			mapped.NI, mapped.NJ, mapped.NK, mapped.Coords, read.NI, read.NJ, read.NK, read.Coords)
	}
	written := [][]float32{f.U, f.V, f.W}
	for c, got := range [][]float32{mapped.U, mapped.V, mapped.W} {
		want := [][]float32{read.U, read.V, read.W}[c]
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("component %d: mapped len %d cap %d, read len %d", c, len(got), cap(got), len(want))
		}
		for i := range want {
			g, r, w := math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(written[c][i])
			if g != r || r != w {
				t.Fatalf("component %d node %d: mapped %#x, read %#x, written %#x", c, i, g, r, w)
			}
		}
	}
}
