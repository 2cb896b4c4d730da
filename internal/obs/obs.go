// Package obs instruments the frame pipeline. The paper's whole
// premise is a ~1/8 s command-to-display loop (§1.2); Bethel et al.'s
// remote-visualization experience (PAPERS.md) is that such pipelines
// only get fast once every stage is measured separately. obs gives the
// windtunnel that: per-stage frame timings (load / integrate / encode)
// with memoization counters, a process-wide expvar export, and an
// opt-in debug HTTP endpoint carrying expvar and pprof.
package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// FrameSample is one frame round's measurement, recorded by the server
// after the round is encoded.
type FrameSample struct {
	// Load is time spent waiting for the timestep (disk regime).
	Load time.Duration
	// Integrate is the visualization computation across all rakes.
	Integrate time.Duration
	// Encode is wire-encoding time spent inside the round itself. The
	// server encodes its shared codec-v1 reply when a consumer first
	// asks for it and books that through ObserveEncode, so its samples
	// leave this zero.
	Encode time.Duration
	// RakesComputed counts rakes whose geometry was recomputed this
	// round; RakesReused counts rakes served from the dirty-rake memo.
	RakesComputed int
	RakesReused   int
	// ToolsComputed / ToolsReused are the same split for the shared
	// tools (isosurface, cutting plane, vortex cores); ToolPoints is
	// the tool-section geometry shipped this round.
	ToolsComputed int
	ToolsReused   int
	ToolPoints    int64
	// FrameReused marks a round served whole from the previous encode
	// (environment version unchanged).
	FrameReused bool
	// Points is the geometry point count shipped in the reply. Bytes is
	// the size of whatever reply the round itself encoded; like Encode,
	// the server books its codec-v1 reply through ObserveEncode, at the
	// size it had when it was encoded, and a round no v1 consumer asked
	// for adds none.
	Points int64
	Bytes  int64
	// Predicted is the frame-budget governor's pre-frame cost
	// prediction (zero until its EWMA calibrates); Budget is the
	// configured frame budget (zero when the governor is disabled);
	// Shed is the fraction of resident integration work shed this
	// round (0 = full fidelity).
	Predicted time.Duration
	Budget    time.Duration
	Shed      float64
}

// Snapshot is the cumulative view of a Recorder. Durations are sums;
// divide by Frames for per-frame means.
type Snapshot struct {
	Frames        int64
	FramesReused  int64
	LoadTime      time.Duration
	IntegrateTime time.Duration
	EncodeTime    time.Duration
	RakesComputed int64
	RakesReused   int64
	ToolsComputed int64
	ToolsReused   int64
	ToolPoints    int64
	Points        int64
	Bytes         int64
	// FramesShipped counts per-session reply sends and BytesShipped
	// their summed sizes. With the encode-once fan-out, K workstations
	// sharing a round ship K frames off one encode, so
	// FramesShipped/Frames is the fan-out factor.
	FramesShipped int64
	BytesShipped  int64
	// Governor gauges: Budget is the configured frame budget (last
	// non-zero observed), PredictedTime the summed cost predictions,
	// FramesShed the rounds shipped degraded, and ShedSum the summed
	// per-round shed fractions (divide by Frames for the mean).
	Budget        time.Duration
	PredictedTime time.Duration
	FramesShed    int64
	ShedSum       float64
}

// per returns d averaged over the snapshot's frames.
func (s Snapshot) per(d time.Duration) time.Duration {
	if s.Frames == 0 {
		return 0
	}
	return d / time.Duration(s.Frames)
}

// AvgLoad returns mean load wait per frame.
func (s Snapshot) AvgLoad() time.Duration { return s.per(s.LoadTime) }

// AvgIntegrate returns mean integration time per frame.
func (s Snapshot) AvgIntegrate() time.Duration { return s.per(s.IntegrateTime) }

// AvgEncode returns mean encode time per frame.
func (s Snapshot) AvgEncode() time.Duration { return s.per(s.EncodeTime) }

// AvgPredicted returns the mean governor cost prediction per frame.
func (s Snapshot) AvgPredicted() time.Duration { return s.per(s.PredictedTime) }

// AvgShed returns the mean fraction of integration work shed per
// frame (0 when the governor never clamped).
func (s Snapshot) AvgShed() float64 {
	if s.Frames == 0 {
		return 0
	}
	return s.ShedSum / float64(s.Frames)
}

// ReuseRatio returns the fraction of rake geometries served from the
// memo rather than recomputed.
func (s Snapshot) ReuseRatio() float64 {
	total := s.RakesComputed + s.RakesReused
	if total == 0 {
		return 0
	}
	return float64(s.RakesReused) / float64(total)
}

// String summarizes the snapshot for logs and benchmark tables. The
// governor column only appears once a budget has been observed, so
// ungoverned pipelines log exactly as before.
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"frames=%d (reused %d, shipped %d) load=%v integrate=%v encode=%v rakes computed=%d reused=%d (%.0f%%) points=%d bytes=%d shipped=%d",
		s.Frames, s.FramesReused, s.FramesShipped,
		s.AvgLoad().Round(time.Microsecond),
		s.AvgIntegrate().Round(time.Microsecond),
		s.AvgEncode().Round(time.Microsecond),
		s.RakesComputed, s.RakesReused, 100*s.ReuseRatio(),
		s.Points, s.Bytes, s.BytesShipped)
	if s.ToolsComputed > 0 || s.ToolsReused > 0 {
		// Only once a shared tool has run, so toolless pipelines log
		// exactly as before.
		out += fmt.Sprintf(" tools computed=%d reused=%d points=%d",
			s.ToolsComputed, s.ToolsReused, s.ToolPoints)
	}
	if s.Budget > 0 {
		out += fmt.Sprintf(" budget=%v predicted=%v shed frames=%d avg=%.1f%%",
			s.Budget,
			s.AvgPredicted().Round(time.Microsecond),
			s.FramesShed, 100*s.AvgShed())
	}
	return out
}

// Recorder accumulates FrameSamples. The zero value is ready to use;
// all methods are safe for concurrent callers.
type Recorder struct {
	mu sync.Mutex
	s  Snapshot
}

// Observe folds one frame's sample into the cumulative counters.
func (r *Recorder) Observe(f FrameSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Frames++
	if f.FrameReused {
		r.s.FramesReused++
	}
	r.s.LoadTime += f.Load
	r.s.IntegrateTime += f.Integrate
	r.s.EncodeTime += f.Encode
	r.s.RakesComputed += int64(f.RakesComputed)
	r.s.RakesReused += int64(f.RakesReused)
	r.s.ToolsComputed += int64(f.ToolsComputed)
	r.s.ToolsReused += int64(f.ToolsReused)
	r.s.ToolPoints += f.ToolPoints
	r.s.Points += f.Points
	r.s.Bytes += f.Bytes
	if f.Budget > 0 {
		r.s.Budget = f.Budget
	}
	r.s.PredictedTime += f.Predicted
	if f.Shed > 0 {
		r.s.FramesShed++
		r.s.ShedSum += f.Shed
	}
}

// ObserveEncode records one encode of a round's shared reply outside
// Observe: the time it took and the encoded size. Snapshot.EncodeTime
// and Snapshot.Bytes sum these with whatever the samples carried.
func (r *Recorder) ObserveEncode(d time.Duration, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.EncodeTime += d
	r.s.Bytes += bytes
}

// ObserveShip records one per-session reply send of the given encoded
// size. Ships are counted separately from Observe because one encoded
// round fans out to many sessions.
func (r *Recorder) ObserveShip(bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.FramesShipped++
	r.s.BytesShipped += bytes
}

// Snapshot returns the cumulative counters.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s
}

// Publish exports the recorder's snapshot as an expvar under name.
// Like expvar.Publish, it must be called at most once per name per
// process (typically from the server main).
func Publish(name string, r *Recorder) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// PublishFunc exports an arbitrary snapshot function as an expvar under
// name — used for subsystems with their own stats types (e.g. the
// shared timestep cache). Same once-per-name rule as Publish.
func PublishFunc(name string, fn func() any) {
	expvar.Publish(name, expvar.Func(fn))
}

// DebugServer is an opt-in HTTP endpoint exposing expvar (/debug/vars)
// and pprof (/debug/pprof/) on its own mux, so enabling observability
// never exposes the windtunnel's dlib port to HTTP.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts a DebugServer on addr (e.g. "localhost:6060").
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the endpoint's bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the endpoint down.
func (d *DebugServer) Close() error { return d.srv.Close() }
