package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// makeDataset builds a small in-memory dataset whose step t has
// constant U = t, so loads are verifiable.
func makeDataset(t testing.TB, numSteps int) *field.Unsteady {
	t.Helper()
	g, err := grid.NewCartesian(8, 8, 4, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(7, 7, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, numSteps)
	for s := range steps {
		f := field.NewField(8, 8, 4, field.GridCoords)
		for i := range f.U {
			f.U[i] = float32(s)
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func checkStep(t *testing.T, f *field.Field, want float32) {
	t.Helper()
	if f.U[0] != want {
		t.Fatalf("step payload U[0] = %v, want %v", f.U[0], want)
	}
}

func TestMemoryStore(t *testing.T) {
	m := NewMemory(makeDataset(t, 5))
	if m.NumSteps() != 5 || m.DT() != 0.1 {
		t.Fatalf("metadata: steps=%d dt=%v", m.NumSteps(), m.DT())
	}
	f, err := m.LoadStep(3)
	if err != nil {
		t.Fatal(err)
	}
	checkStep(t, f, 3)
	if _, err := m.LoadStep(-1); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := m.LoadStep(5); err == nil {
		t.Error("overflow step accepted")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	u := makeDataset(t, 4)
	if err := WriteDataset(dir, u); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumSteps() != 4 || absf(d.DT()-0.1) > 1e-6 {
		t.Fatalf("metadata: steps=%d dt=%v", d.NumSteps(), d.DT())
	}
	if d.Grid().NI != 8 || d.Grid().NK != 4 {
		t.Fatalf("grid dims %dx%dx%d", d.Grid().NI, d.Grid().NJ, d.Grid().NK)
	}
	for s := 0; s < 4; s++ {
		f, err := d.LoadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		checkStep(t, f, float32(s))
	}
	loads, bytes, _ := d.Stats()
	if loads != 4 {
		t.Errorf("loads = %d, want 4", loads)
	}
	wantBytes := int64(4) * u.Steps[0].SizeBytes()
	if bytes != wantBytes {
		t.Errorf("bytesRead = %d, want %d", bytes, wantBytes)
	}
}

// TestLoadResident: the resident copy of a disk dataset serves every
// step the disk holds, and a step that fails to load fails the copy.
func TestLoadResident(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, makeDataset(t, 3)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadResident(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSteps() != 3 || m.DT() != d.DT() || m.Grid() != d.Grid() {
		t.Fatalf("metadata: steps=%d dt=%v", m.NumSteps(), m.DT())
	}
	for s := range 3 {
		f, err := m.LoadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		checkStep(t, f, float32(s))
	}
	if err := os.Remove(filepath.Join(dir, stepFileName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResident(d); err == nil {
		t.Error("dataset with a missing step file loaded resident")
	}
}

func TestDiskRejectsMissingDataset(t *testing.T) {
	if _, err := OpenDisk(t.TempDir(), DiskOptions{}); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestDiskOutOfRange(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, makeDataset(t, 2)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadStep(2); err == nil {
		t.Error("out-of-range step accepted")
	}
}

func TestDiskBandwidthThrottle(t *testing.T) {
	dir := t.TempDir()
	u := makeDataset(t, 2)
	if err := WriteDataset(dir, u); err != nil {
		t.Fatal(err)
	}
	// Step size is 8*8*4*12 = 3072 bytes. At 100 KB/s a load takes
	// >= ~30 ms.
	d, err := OpenDisk(dir, DiskOptions{BandwidthBytesPerSec: 100 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := d.LoadStep(0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("throttled load took %v, want >= ~30ms", elapsed)
	}
}

// TestDiskBandwidthSharedByConcurrentLoads: a disk's bandwidth is one
// budget, however many loads are in flight — a foreground miss beside
// the prefetcher does not read at twice the device rate. Two
// concurrent loads of a step together take at least twice a step's
// size over the bandwidth.
func TestDiskBandwidthSharedByConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	u := makeDataset(t, 2)
	if err := WriteDataset(dir, u); err != nil {
		t.Fatal(err)
	}
	const bw = 100 * 1024
	d, err := OpenDisk(dir, DiskOptions{BandwidthBytesPerSec: bw})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for step := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.LoadStep(step); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	want := time.Duration(float64(2*u.Steps[0].SizeBytes()) / bw * float64(time.Second))
	if elapsed < want {
		t.Errorf("two concurrent throttled loads took %v, want >= %v", elapsed, want)
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkDiskLoadStep(b *testing.B) {
	dir := b.TempDir()
	g, _ := grid.NewCartesian(64, 64, 32, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(1, 1, 1),
	})
	f := field.NewField(64, 64, 32, field.GridCoords)
	u, _ := field.NewUnsteady(g, []*field.Field{f}, 0.1)
	if err := WriteDataset(dir, u); err != nil {
		b.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.LoadStep(0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOpenDiskRejectsCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	u := makeDataset(t, 2)
	if err := WriteDataset(dir, u); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.vwt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, DiskOptions{}); err == nil {
		t.Error("corrupt meta accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.vwt"), []byte("steps 0\ndt 0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, DiskOptions{}); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestDiskMissingStepFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, makeDataset(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "step_000001.vwt")); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadStep(1); err == nil {
		t.Error("missing step file loaded")
	}
	if _, err := d.LoadStep(0); err != nil {
		t.Errorf("intact step failed: %v", err)
	}
}

func TestMemoryUnsteadyAccessor(t *testing.T) {
	u := makeDataset(t, 2)
	m := NewMemory(u)
	if m.Unsteady() != u {
		t.Error("Unsteady accessor broken")
	}
	if m.Close() != nil {
		t.Error("Close failed")
	}
}
