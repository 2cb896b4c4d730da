package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/netsim"
)

// Dataset directory layout:
//
//	<dir>/grid.vwt              grid file (field.WriteGrid)
//	<dir>/step_000000.vwt ...   one timestep file per step
//	<dir>/meta.vwt              dt and step count (tiny text file)

// stepFileName returns the timestep file name for step t.
func stepFileName(t int) string { return fmt.Sprintf("step_%06d.vwt", t) }

// WriteDataset writes an in-memory dataset to dir in the on-disk
// layout. dir is created if needed.
func WriteDataset(dir string, u *field.Unsteady) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dataset dir: %w", err)
	}
	gf, err := os.Create(filepath.Join(dir, "grid.vwt"))
	if err != nil {
		return fmt.Errorf("store: create grid file: %w", err)
	}
	if err := field.WriteGrid(gf, u.Grid); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}
	for t, step := range u.Steps {
		sf, err := os.Create(filepath.Join(dir, stepFileName(t)))
		if err != nil {
			return fmt.Errorf("store: create step file %d: %w", t, err)
		}
		if err := field.WriteField(sf, step); err != nil {
			sf.Close()
			return fmt.Errorf("store: write step %d: %w", t, err)
		}
		if err := sf.Close(); err != nil {
			return err
		}
	}
	meta := fmt.Sprintf("steps %d\ndt %g\n", len(u.Steps), u.DT)
	if err := os.WriteFile(filepath.Join(dir, "meta.vwt"), []byte(meta), 0o644); err != nil {
		return fmt.Errorf("store: write meta: %w", err)
	}
	return nil
}

// DiskOptions configures a Disk store.
type DiskOptions struct {
	// BandwidthBytesPerSec throttles reads to simulate a particular
	// disk subsystem (the paper's Convex measured 30-50 MB/s). Zero
	// means unthrottled.
	BandwidthBytesPerSec int64
}

// Disk is a Store reading timesteps from a dataset directory, with an
// optional bandwidth throttle and load statistics. It models §5.1's
// "data must reside on a mass storage device" regime.
//
// On a little-endian linux host a step is not copied into the Go heap:
// LoadStep maps its file read-only and pre-faulted, and the field's
// components are slices over the mapping, which is unmapped once
// nothing references the *field.Field (a finalizer is the release
// point). A component slice does not keep its field alive, so a user
// holds the field, not a bare U, V or W, for as long as it reads them.
// A write into a served step faults, and a step file rewritten or
// truncated while its step is served faults its reader (SIGBUS): a
// dataset directory is not rewritten while a server reads it.
type Disk struct {
	dir      string
	g        *grid.Grid
	numSteps int
	dt       float32
	pace     *netsim.Pacer

	bytesRead atomic.Int64
	loads     atomic.Int64
	loadNanos atomic.Int64
	// mappedSteps and mappedBytes count the step files mapped and not
	// yet released.
	mappedSteps atomic.Int64
	mappedBytes atomic.Int64
}

// OpenDisk opens a dataset directory written by WriteDataset.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	gf, err := os.Open(filepath.Join(dir, "grid.vwt"))
	if err != nil {
		return nil, fmt.Errorf("store: open grid: %w", err)
	}
	g, err := field.ReadGrid(gf)
	gf.Close()
	if err != nil {
		return nil, err
	}
	metaBytes, err := os.ReadFile(filepath.Join(dir, "meta.vwt"))
	if err != nil {
		return nil, fmt.Errorf("store: read meta: %w", err)
	}
	var numSteps int
	var dt float32
	if _, err := fmt.Sscanf(string(metaBytes), "steps %d\ndt %g", &numSteps, &dt); err != nil {
		return nil, fmt.Errorf("store: parse meta: %w", err)
	}
	if numSteps < 1 || dt <= 0 {
		return nil, fmt.Errorf("store: bad meta: steps=%d dt=%g", numSteps, dt)
	}
	return &Disk{dir: dir, g: g, numSteps: numSteps, dt: dt, pace: netsim.NewPacer(opts.BandwidthBytesPerSec)}, nil
}

// Grid implements Store.
func (d *Disk) Grid() *grid.Grid { return d.g }

// NumSteps implements Store.
func (d *Disk) NumSteps() int { return d.numSteps }

// DT implements Store.
func (d *Disk) DT() float32 { return d.dt }

// Close implements Store.
func (d *Disk) Close() error { return nil }

// LoadStep implements Store, reading the step file (readPayload: a
// mapping where the host can serve the file's bytes as the field's
// samples) and paying for it through the disk's pacer: loads in flight
// at once share the bandwidth, so none completes before the disk could
// have delivered it after those booked ahead of it. A file that is not
// a timestep of this dataset — other dimensions than the grid's, or a
// length that is not its header's — is refused by name before its
// samples are read or mapped.
func (d *Disk) LoadStep(t int) (*field.Field, error) {
	if t < 0 || t >= d.numSteps {
		return nil, fmt.Errorf("store: timestep %d out of range [0, %d)", t, d.numSteps)
	}
	start := time.Now() //vw:allow wallclock -- simulated disk bandwidth throttles real time by design
	path := filepath.Join(d.dir, stepFileName(t))
	sf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open step %d: %w", t, err)
	}
	defer sf.Close()
	f, err := field.ReadFieldHeader(sf)
	if err != nil {
		return nil, fmt.Errorf("store: read step %d (%s): %w", t, path, err)
	}
	if !f.MatchesGrid(d.g) {
		return nil, fmt.Errorf("store: step %d (%s) is %dx%dx%d, the grid %dx%dx%d",
			t, path, f.NI, f.NJ, f.NK, d.g.NI, d.g.NJ, d.g.NK)
	}
	if info, err := sf.Stat(); err != nil {
		return nil, fmt.Errorf("store: stat step %d: %w", t, err)
	} else if info.Size() != f.FileSize() {
		return nil, fmt.Errorf("store: step %d (%s) is %d bytes, want %d",
			t, path, info.Size(), f.FileSize())
	}
	if err := d.readPayload(sf, f); err != nil {
		return nil, fmt.Errorf("store: read step %d (%s): %w", t, path, err)
	}
	n := f.SizeBytes()
	d.pace.Pay(start, n)
	d.bytesRead.Add(n)
	d.loads.Add(1)
	d.loadNanos.Add(int64(time.Since(start))) //vw:allow wallclock -- obs-only load timer
	return f, nil
}

// Stats reports cumulative load statistics.
func (d *Disk) Stats() (loads int64, bytesRead int64, totalTime time.Duration) {
	return d.loads.Load(), d.bytesRead.Load(), time.Duration(d.loadNanos.Load())
}

// Mapped reports the step files mapped now: the steps LoadStep served
// whose fields have not yet been released, and their mappings' bytes.
// It reads 0 where steps are read into the heap.
func (d *Disk) Mapped() (steps, bytes int64) {
	return d.mappedSteps.Load(), d.mappedBytes.Load()
}
