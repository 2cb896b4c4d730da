package bench

import (
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dlib"
	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
)

// Fig8Pipeline measures the remote-system architecture of figure 8:
// dataset streamed from throttled disk, frames computed with and
// without the prefetching that overlaps the next timestep's load with
// the current computation.
func Fig8Pipeline(u *field.Unsteady, diskBW int64, frames int) (*Table, error) {
	dir, err := os.MkdirTemp("", "vwt-fig8-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := store.WriteDataset(dir, u); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 8: remote pipeline — synchronous load vs prefetch overlap",
		Note: fmt.Sprintf("disk throttled to %d MB/s, %d frames of playback, timestep %d bytes; per-stage means from the server's round counters",
			diskBW/(1<<20), frames, u.Steps[0].SizeBytes()),
		Header: []string{"configuration", "mean frame time", "achieved fps", "load", "integrate", "encode"},
	}
	for _, prefetch := range []bool{false, true} {
		mean, stages, err := runPipeline(dir, diskBW, frames, prefetch)
		if err != nil {
			return nil, err
		}
		name := "synchronous load"
		if prefetch {
			name = "prefetch overlap"
		}
		t.AddRow(name, mean.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.1f", 1/mean.Seconds()),
			stages.PerRound(stages.LoadTime).Round(10*time.Microsecond).String(),
			stages.PerRound(stages.ComputeTime).Round(10*time.Microsecond).String(),
			stages.PerRound(stages.EncodeTime).Round(10*time.Microsecond).String())
	}
	return t, nil
}

func runPipeline(dir string, diskBW int64, frames int, prefetch bool) (time.Duration, server.Stats, error) {
	disk, err := store.OpenDisk(dir, store.DiskOptions{BandwidthBytesPerSec: diskBW})
	if err != nil {
		return 0, server.Stats{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, server.Stats{}, err
	}
	srv, err := core.Serve(ln, disk, core.Options{Prefetch: prefetch})
	if err != nil {
		return 0, server.Stats{}, err
	}
	defer srv.Dlib().Close()
	sess, err := core.Connect(ln.Addr().String(), nil, core.Options{FrameW: 64, FrameH: 64})
	if err != nil {
		return 0, server.Stats{}, err
	}
	defer sess.Close()
	// A heavy rake makes the visualization computation comparable to
	// the disk load, so the figure-8 overlap has something to hide the
	// load behind; with a trivial compute the two configurations tie.
	sess.AddRake(vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), 150, integrate.ToolStreamline)
	sess.Play(1)
	// Warmup frame creates the rake and primes the pipeline.
	if _, err := sess.Frame(); err != nil {
		return 0, server.Stats{}, err
	}
	before := srv.Stats()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if _, err := sess.Frame(); err != nil {
			return 0, server.Stats{}, err
		}
	}
	mean := time.Since(start) / time.Duration(frames)
	after := srv.Stats()
	stages := server.Stats{
		Frames:      after.Frames - before.Frames,
		LoadTime:    after.LoadTime - before.LoadTime,
		ComputeTime: after.ComputeTime - before.ComputeTime,
		EncodeTime:  after.EncodeTime - before.EncodeTime,
	}
	return mean, stages, nil
}

// Fig9Client measures the workstation architecture of figure 9: with
// the network loop slowed by link latency, the decoupled render loop
// keeps running at a much higher rate.
func Fig9Client(u *field.Unsteady, latency time.Duration, netFrames int) (*Table, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := core.Serve(ln, store.NewMemory(u), core.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Dlib().Close()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	slow := netsim.Link{Latency: latency}.Wrap(raw)
	sess, err := core.Connect("", slow, core.Options{FrameW: 64, FrameH: 64})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	sess.AddRake(vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), 5, integrate.ToolStreamline)
	if _, err := sess.Frame(); err != nil {
		return nil, err
	}
	netHz, renderHz, err := sess.WS.RunDecoupled(sess.User, netFrames)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 9: workstation loops — render decoupled from network",
		Note: fmt.Sprintf("link latency %v; the render loop must outrun the command loop",
			latency),
		Header: []string{"loop", "rate (Hz)"},
	}
	t.AddRow("network/command", fmt.Sprintf("%.1f", netHz))
	t.AddRow("head-tracked render", fmt.Sprintf("%.1f", renderHz))
	t.AddRow("render/network ratio", fmt.Sprintf("%.1fx", renderHz/netHz))
	return t, nil
}

// Fig67DlibIO demonstrates figures 6/7: a client reaching a remote
// disk through dlib's remote I/O path, compared with reading the same
// timestep from local disk.
func Fig67DlibIO(u *field.Unsteady) (*Table, error) {
	dir, err := os.MkdirTemp("", "vwt-fig67-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := store.WriteDataset(dir, u); err != nil {
		return nil, err
	}

	// Remote: a dlib server whose "remote I/O library" loads timesteps
	// from its disk; the client fetches step payloads over the wire.
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return nil, err
	}
	srv := dlib.NewServer()
	srv.Register("io.loadstep", func(_ *dlib.Ctx, req []byte) ([]byte, error) {
		if len(req) != 4 {
			return nil, fmt.Errorf("want step index")
		}
		step := int(uint32(req[0]) | uint32(req[1])<<8 | uint32(req[2])<<16 | uint32(req[3])<<24)
		f, err := disk.LoadStep(step)
		if err != nil {
			return nil, err
		}
		// Ship the raw component arrays.
		out := make([]byte, 0, f.SizeBytes())
		for _, comp := range [][]float32{f.U, f.V, f.W} {
			for _, v := range comp {
				bits := float32bits(v)
				out = append(out, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
			}
		}
		return out, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := dlib.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()

	const reps = 3
	req := []byte{0, 0, 0, 0}
	remoteStart := time.Now()
	var remoteBytes int
	for i := 0; i < reps; i++ {
		out, err := c.Call("io.loadstep", req)
		if err != nil {
			return nil, err
		}
		remoteBytes = len(out)
	}
	remote := time.Since(remoteStart) / reps

	localDisk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return nil, err
	}
	localStart := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := localDisk.LoadStep(0); err != nil {
			return nil, err
		}
	}
	local := time.Since(localStart) / reps

	t := &Table{
		Title: "Figures 6/7: local I/O library vs remote I/O through dlib",
		Note: fmt.Sprintf("one %d-byte timestep load, mean of %d; the stippled 'effective data path'",
			remoteBytes, reps),
		Header: []string{"path", "mean load time"},
	}
	t.AddRow("local I/O library", local.Round(10*time.Microsecond).String())
	t.AddRow("dlib -> remote server -> remote disk", remote.Round(10*time.Microsecond).String())
	return t, nil
}

func float32bits(f float32) uint32 { return math.Float32bits(f) }
