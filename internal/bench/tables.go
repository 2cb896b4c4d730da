package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/compute"
	"repro/internal/dlib"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// Table1Particles are the paper's Table 1 rows.
var Table1Particles = []int{10000, 50000, 100000}

// mbytes formats bytes as the paper's MB/s (decimal-free binary MB as
// the paper used: 1 MB = 2^20 bytes, giving its 1.144/5.722/9.537).
func mbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.3f", bytesPerSec/(1<<20))
}

// Table1 reproduces "Table 1: Network constraints": bytes per frame at
// 12 bytes/point and the bandwidth required for 10 frames/second.
// The paper's first two rows follow bytes*10/2^20 exactly (1.144,
// 5.722); its third row prints 9.537 where that formula gives 11.444 —
// an arithmetic slip in the original (9.537 corresponds to 1,000,000
// bytes/frame, not the row's own 1,200,000). We print the consistent
// value and flag the discrepancy in EXPERIMENTS.md.
func Table1() *Table {
	t := &Table{
		Title:  "Table 1: Network constraints",
		Note:   "12 bytes/point, 10 frames/second",
		Header: []string{"# of particles", "# of bytes transferred", "required bandwidth (MB/s)"},
	}
	for _, n := range Table1Particles {
		bytes := n * wire.PointBytes
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", bytes),
			mbps(float64(bytes)*10),
		)
	}
	return t
}

// Table1Measured runs the Table 1 transfers through real dlib calls
// over simulated UltraNet links and reports the achieved frame rate —
// who can actually sustain 10 fps.
func Table1Measured(frames int) (*Table, error) {
	t := &Table{
		Title: "Table 1 (measured): achieved frame rate over simulated links",
		Note: "dlib frame exchange over loopback TCP paced to the paper's link budgets;\n" +
			"UltraNet-actual = 1 MB/s, UltraNet-VME = 13 MB/s",
		Header: []string{"# of particles", "link", "achieved fps", "sustains 10 fps?"},
	}
	links := []struct {
		name string
		bw   int64
	}{
		{"ultranet-actual (1 MB/s)", netsim.UltraNetActual},
		{"ultranet-vme (13 MB/s)", netsim.UltraNetVME},
	}
	for _, n := range Table1Particles {
		payload := wire.EncodePoints(make([]byte, 0, n*wire.PointBytes), make([]vmath.Vec3, n))
		for _, link := range links {
			fps, err := measureTransferFPS(payload, netsim.Link{BandwidthBytesPerSec: link.bw}, frames)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("%d", n),
				link.name,
				fmt.Sprintf("%.2f", fps),
				yesNo(fps >= 10),
			)
		}
	}
	return t, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// measureTransferFPS serves `payload` per call over a paced link and
// measures the achieved call rate.
func measureTransferFPS(payload []byte, link netsim.Link, frames int) (float64, error) {
	srv := dlib.NewServer()
	srv.Register("points", func(*dlib.Ctx, []byte) ([]byte, error) { return payload, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Pace the server's writes: the visualization data flows
		// server -> workstation.
		srv.ServeConn(link.Wrap(conn))
	}()
	c, err := dlib.Dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	// One warmup, then timed frames.
	if _, err := c.Call("points", nil); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < frames; i++ {
		if _, err := c.Call("points", nil); err != nil {
			return 0, err
		}
	}
	return float64(frames) / time.Since(start).Seconds(), nil
}

// Table2Grids are the paper's Table 2 rows: grid point counts.
var Table2Grids = []struct {
	Points int
	Label  string
}{
	{131072, "131,072 (tapered cyl.)"},
	{436906, "436,906 (current max)"},
	{1000000, "1,000,000"},
	{3000000, "3,000,000"},
	{10000000, "10,000,000"},
}

// Table2 reproduces "Table 2: Disk bandwidth constraints".
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: Disk bandwidth constraints",
		Note:   "12 bytes/point/timestep, 10 frames/second",
		Header: []string{"# of points in grid", "# of bytes in a timestep", "# timesteps per GB", "required disk bandwidth (MB/s)"},
	}
	const gb = 1 << 30
	for _, g := range Table2Grids {
		bytes := int64(g.Points) * 12
		t.AddRow(
			g.Label,
			fmt.Sprintf("%d", bytes),
			fmt.Sprintf("%d", int64(gb)/bytes),
			mbps(float64(bytes)*10),
		)
	}
	return t
}

// Table3Rows are the paper's Table 3 benchmark times.
var Table3Rows = []struct {
	Bench time.Duration
	Label string
}{
	{250 * time.Millisecond, "0.25 seconds"},
	{190 * time.Millisecond, "0.19 seconds (current)"},
	{130 * time.Millisecond, "0.13 seconds (workstation)"},
	{100 * time.Millisecond, "0.10 seconds"},
	{50 * time.Millisecond, "0.05 seconds"},
}

// Table3 reproduces "Table 3: Computational performance constraints":
// benchmark time to maximum particles at 10 fps, "assuming that the
// performance scales with the number of particles".
func Table3() *Table {
	t := &Table{
		Title:  "Table 3: Computational performance constraints",
		Note:   "benchmark = 100 streamlines x 200 points (20,000 points)",
		Header: []string{"Benchmark performance", "maximum # of particles", "# of streamlines w/ 200 particles"},
	}
	frame := time.Second / 10
	for _, row := range Table3Rows {
		maxP := compute.MaxParticlesAt(row.Bench, compute.BenchTotalPoints, frame)
		t.AddRow(row.Label, fmt.Sprintf("%d", maxP), fmt.Sprintf("%d", maxP/200))
	}
	return t
}

// EngineBench runs the §5.3 benchmark once per machine the paper
// measured or proposed: the parallel engine at that machine's processor
// count for this host's wall time, and the same work priced by the
// machine's calibrated 1992 cost model, with the derived max particle
// count. The shape requirement: modeled sgi-8 < vector-3 < scalar-4,
// matching the paper's awkward finding that vectorization barely beat
// the scalar-parallel code.
func EngineBench() (*Table, error) {
	w, err := compute.BenchmarkWorkload()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Sec 5.3 benchmark: 100 streamlines x 200 points",
		Note:  "modeled = calibrated 1992 cost model; wall = this host, parallel engine at the row's worker count",
		Header: []string{"engine", "workers", "wall time", "modeled 1992 time",
			"max particles @10fps (modeled)"},
	}
	models := []compute.CostModel{
		compute.ConvexScalar4,
		compute.ConvexVector3,
		compute.SGI380GT8,
		// The paper's proposed-but-unbuilt optimization: groups of
		// streamlines across processors, vectorized within each group.
		compute.ConvexHybrid4,
	}
	frame := time.Second / 10
	for _, m := range models {
		e := compute.Parallel{NumWorkers: m.Workers}
		// Best of 3 to de-noise the wall clock.
		var best compute.Result
		for i := 0; i < 3; i++ {
			r := compute.RunBenchmark(e, w, m)
			if i == 0 || r.Wall < best.Wall {
				best = r
			}
		}
		if !best.Complete {
			return nil, fmt.Errorf("bench: engine %s terminated streamlines early", e.Name())
		}
		t.AddRow(
			m.Name,
			fmt.Sprintf("%d", m.Workers),
			best.Wall.Round(10*time.Microsecond).String(),
			best.Modeled.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", compute.MaxParticlesAt(best.Modeled, compute.BenchTotalPoints, frame)),
		)
	}
	return t, nil
}
