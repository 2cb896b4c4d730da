// Package server implements the distributed windtunnel's remote host —
// the role the Convex C3240 plays in the paper. It owns the dataset (a
// store.Source: resident, streamed with prefetch, or live), the
// authoritative shared virtual environment, and the visualization
// computation; it accepts user commands over dlib and returns
// environment state plus computed geometry (figure 8).
//
// The package is split along the cluster-tier seam. This file holds
// configuration, counters, and assembly; session.go is the session
// layer (hellos, codec state, encode-once fan-out, command validation,
// and the relay exchange internal/relay speaks upstream); compute.go
// is the compute layer (timestep loads, governor planning, rake
// integration, round encode).
//
// The frame hot path is memoized at two levels. Whole-frame: when the
// environment version is unchanged since the last round (paused
// playback, idle users) the previous encoded reply is served verbatim,
// so identical frames are byte-identical by construction. Per-rake:
// streamlines and particle paths are pure functions of the rake's
// geometry inputs (endpoints, seed count, tool — tracked by a version
// counter in env) and the timestep, so only rakes whose inputs changed
// are recomputed; independent dirty rakes recompute concurrently on a
// bounded worker pool.
//
// Frames fan out encode-once: each round's codec-v1 reply is
// wire-encoded at most one time — when the first v1 session or relay
// asks for it — into a new buffer every session served within that
// round is handed, and that nothing rewrites; codec-v2 and relay
// replies are assembled in a buffer each session owns. Adding
// workstations therefore adds sends, not encodes: frames-encoded per
// round is independent of the session count, and steady-state frames
// do near-zero allocation. Which timesteps stay resident is the
// source's decision: each round tells it where the play stands, and
// the server reads every step and path level through it.
//
//vw:deterministic
//vw:wire
package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/compute"
	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config assembles a windtunnel server.
type Config struct {
	// Store supplies the dataset. A store.Source keeps what each round
	// reads resident itself; any other Store is I/O-backed and is read
	// through one store.Cache, which keeps §5.1's window — the steps the
	// play and its particle paths touch next — resident whatever the
	// budget below.
	Store store.Store
	// Engine computes visualization geometry; nil uses the parallel
	// engine with GOMAXPROCS workers. Its Workers() is also the width of
	// the round's pool, which runs dirty rakes and tools side by side.
	Engine compute.Engine
	// Options sets integration parameters; zero value uses
	// integrate.DefaultOptions (RK2, 200-point paths).
	Options integrate.Options
	// MaxSeedsPerRake clamps client-requested seed counts: one hostile
	// ClientUpdate must not be able to request an unbounded integration
	// workload. 0 means 4096.
	MaxSeedsPerRake int
	// Prefetch reads the missing steps of that window in the
	// background, in play order, while rounds compute (figure 8); off,
	// an I/O-backed Store is read on demand, on the goroutine that
	// needs the step.
	Prefetch bool
	// CacheSteps / CacheBytes budget the timesteps an I/O-backed
	// server keeps beyond that window, least recently used first out:
	// CacheSteps bounds resident timesteps, CacheBytes their total size
	// (either may be zero for "no bound on that axis"; both zero keeps
	// the window and nothing else). The window counts toward the budget
	// and is never evicted to meet it. A store.Source is never wrapped:
	// it is its own resident set.
	CacheSteps int
	CacheBytes int64
	// Budget is the per-frame integration budget the governor holds
	// the server under by predictive load-shedding (§5.3: only as many
	// path points fit a frame as the machine can integrate in 0.1 s).
	// 0 disables the governor entirely — every frame runs at full
	// fidelity, byte-identical to pre-governor behavior.
	Budget time.Duration
	// Clock supplies stage timing and the governor's calibration
	// measurements; nil uses the real wall clock. Tests inject a
	// netsim.ManualClock, under which every stage measures zero, the
	// EWMA freezes, and frames replay byte-identically.
	Clock netsim.Clock
	// MaxCodec caps the wire codec negotiated at hello: 0 or
	// wire.MaxCodec offers codec v2 (delta frames + quantized points),
	// 1 pins every session to the original v1 encoding. Sessions that
	// never call ProcHello2 always speak v1, byte for byte.
	MaxCodec int
	// Steer seeds the environment's live-steering parameters (in-situ
	// mode). The zero value leaves steering unseeded; either way
	// steering commands are accepted — they only have a producer to act
	// on when Store is a live ring. A seed outside the envelope a
	// steering command is held to fails New.
	Steer env.SteerParams
	// Tools seeds the shared field-diagnostic tools, indexed by
	// env.ToolID-1. All zero leaves the tools untouched — frames carry
	// no tool section and stay byte-identical to pre-tool builds until a
	// tool command arrives. A seed outside the bounds a tool command is
	// held to fails New.
	Tools [env.NumTools]env.ToolParams
}

// Stats is a snapshot of server-side performance counters.
type Stats struct {
	// Frames counts geometry rounds, including rounds served whole
	// from the frame memo.
	Frames int64
	// Points counts path points shipped in FrameReply geometry,
	// summed per round — the §5.3 quantity Table 1 prices. Every tool
	// counts identically: exactly the points that go on the wire.
	Points int64
	// ComputeTime is cumulative visualization compute (the round's pool:
	// every dirty rake and tool, codec-v2 segments included); LoadTime
	// is cumulative timestep load wait; EncodeTime is cumulative encoding
	// time of the shared codec-v1 reply (see V1Encodes).
	ComputeTime time.Duration
	LoadTime    time.Duration
	EncodeTime  time.Duration
	// BytesShipped counts encoded FrameReply bytes summed over every
	// per-session send (a round consumed by three workstations counts
	// three times).
	BytesShipped int64
	// RakesComputed / RakesReused count per-rake geometry
	// recomputations vs dirty-rake memo hits; FramesReused counts
	// rounds served whole from the previous encode.
	RakesComputed int64
	RakesReused   int64
	FramesReused  int64
	// FramesEncoded counts recomputed rounds — each produces the round's
	// shared payload exactly once, whatever the session count — while
	// FramesShipped counts per-session reply sends and grows with the
	// number of attached workstations. V1Encodes counts the rounds whose
	// shared codec-v1 reply was actually encoded: that happens the first
	// time a v1 session or a relay asks for the round, so a round only
	// codec-v2 sessions consume never pays for it. SegmentsEncoded counts
	// codec-v2 segment encodes, by the producing pool job or on a
	// consumer's first request; a server that never saw a v2 session or
	// a relay directory request encodes none.
	FramesEncoded   int64
	FramesShipped   int64
	V1Encodes       int64
	SegmentsEncoded int64
	// V1Bytes sums the encoded sizes of the codec-v1 replies V1Encodes
	// counts; a round no v1 consumer asked for adds none.
	V1Bytes int64
	// FramesShed counts encoded rounds that went out with a non-zero
	// degradation byte — rounds where the governor clamped work, or
	// was still serving clamped geometry from an earlier clamp. ShedSum
	// sums the fraction of resident integration work each round shed
	// (0 = full fidelity), and Budget is the configured frame budget
	// (zero when the governor is disabled).
	FramesShed int64
	ShedSum    float64
	Budget     time.Duration
	// PredictedTime is the cumulative governor cost prediction over
	// encoded rounds (zero until the EWMA calibrates).
	PredictedTime time.Duration
	// PlannedTime is the cumulative predicted cost of the work the
	// governor actually admitted after shedding — where PredictedTime
	// is the demand, PlannedTime is the promise the budget holds.
	PlannedTime time.Duration
	// V2Frames counts replies shipped with codec v2; V2RakesInline and
	// V2RakesRef split their geometry directory entries into full
	// (quantized) segments vs delta references to geometry the session
	// already holds. A high ref share is the Wire 2.0 bandwidth win.
	V2Frames      int64
	V2RakesInline int64
	V2RakesRef    int64
	// RelayFulls / RelayMarkers split ProcFrameRelay replies into full
	// round payloads vs round-unchanged markers; RelayBytes sums both.
	// With relays attached, FramesEncoded still tracks rounds while the
	// per-workstation fan-out happens downstream — the marker share is
	// the cluster tier's bandwidth win at the origin.
	RelayFulls   int64
	RelayMarkers int64
	RelayBytes   int64
	// ToolsComputed / ToolsReused count shared-tool geometry
	// recomputations vs memo hits; ToolPoints counts tool-section
	// points shipped per round (kept apart from Points, which remains
	// the paper's rake-path quantity).
	ToolsComputed int64
	ToolsReused   int64
	ToolPoints    int64
	// PathLoadFailures counts particle paths that ended early because a
	// timestep they needed failed to load.
	PathLoadFailures int64
}

// perRound returns d — one of the cumulative durations above — averaged
// over the rounds in Frames.
func (s Stats) perRound(d time.Duration) time.Duration {
	if s.Frames == 0 {
		return 0
	}
	return d / time.Duration(s.Frames)
}

// reuseRatio returns the fraction of rake geometries in recomputed
// rounds served from the dirty-rake memo rather than recomputed.
func (s Stats) reuseRatio() float64 {
	total := s.RakesComputed + s.RakesReused
	if total == 0 {
		return 0
	}
	return float64(s.RakesReused) / float64(total)
}

// String summarizes the counters for logs and reports. The tool column
// appears only once a shared tool has run and the governor column only
// when a budget is set, so toolless and ungoverned servers log neither.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"frames=%d (reused %d, shipped %d) load=%v compute=%v encode=%v rakes computed=%d reused=%d (%.0f%%) points=%d v1bytes=%d shipped=%.1fMB",
		s.Frames, s.FramesReused, s.FramesShipped,
		s.perRound(s.LoadTime).Round(time.Microsecond),
		s.perRound(s.ComputeTime).Round(time.Microsecond),
		s.perRound(s.EncodeTime).Round(time.Microsecond),
		s.RakesComputed, s.RakesReused, 100*s.reuseRatio(),
		s.Points, s.V1Bytes, float64(s.BytesShipped)/(1<<20))
	if s.ToolsComputed > 0 || s.ToolsReused > 0 {
		out += fmt.Sprintf(" tools computed=%d reused=%d points=%d",
			s.ToolsComputed, s.ToolsReused, s.ToolPoints)
	}
	if s.Budget > 0 {
		out += fmt.Sprintf(" budget=%v predicted=%v shed frames=%d avg=%.1f%%",
			s.Budget, s.perRound(s.PredictedTime).Round(time.Microsecond),
			s.FramesShed, 100*s.ShedSum/float64(max(s.Frames, 1)))
	}
	return out
}

// round is the current round: the one value every stage of a recompute
// fills and every session is served from until the next. meta is its
// header, and its Users, Rakes and Geometry are the recycled wire scratch
// itself; meta.Tools points at tools (the tool section, Geoms aligned with
// the enabled tools) only while a tool is active. segs is the round list:
// the segment-cache record of every geometry source — rakes aligned with
// meta.Geometry, then enabled tools aligned with tools.Geoms. version is
// the env version the round was computed at, points and toolPoints its
// totals. v1 is its shared codec-v1 reply (v1Ready once a consumer asked
// and v1 holds it; never rewritten, the next round's encode replaces
// it), and consumedBy the sessions that have consumed it. There is no
// round while meta.Round is 0.
type round struct {
	meta  wire.FrameReply
	tools wire.ToolsReply
	segs  []*segCache

	version            uint64
	points, toolPoints int64

	v1         []byte
	v1Ready    bool
	consumedBy map[int64]bool
}

// Server is the remote-host application layered on a dlib server.
type Server struct {
	d   *dlib.Server
	cfg Config
	env *env.Environment

	// src is the dataset: cfg.Store, wrapped in a store.Cache when it
	// is not a store.Source. All dataset access goes through it, and
	// each round tells it where the play stands (loadRoundStepLocked).
	src store.Source
	// pathLevels is the time sampler every particle-path rake of a round
	// shares; runJobsLocked resets it per round and the pool workers
	// reach its levels through its own lock. pathReach is the most
	// levels it has held after any round: how far past the playhead
	// §5.1's window must reach.
	pathLevels storeSampler
	pathReach  int

	mu sync.Mutex // guards everything below
	// cur is the loaded timestep backing streamline/streak
	// computation.
	cur      *field.Field
	curStep  int
	streaks  map[int32]*integrate.Streak
	geoCache map[int32]*rakeGeom
	round    round

	// Wire 2.0 state. The round layer splits into a shared payload —
	// the round's header plus the per-source encoded segments cached on
	// its round list — and a per-session part: the codec negotiated at
	// hello and the delta-shadow FrameEncoder that decides, per source,
	// whether this session gets the shared segment or a reference
	// record. geoSeq numbers geometry content: it is bumped once per
	// source recompute, tools then jobs, so segments (and therefore
	// frames) stay deterministic per (client, round).
	quant  wire.Quantizer
	codecs map[int64]*sessionState
	// wantSegs is set, for good, the first time a session negotiates
	// codec v2 or a relay asks for a segment directory: from then on the
	// pool job that rewrites a source's geometry writes its segment too,
	// instead of leaving it to the first consumer on the serial path.
	wantSegs bool
	geoSeq   uint64
	// segScratch holds the wire rows built from the round list per
	// reply, valid only until the reply encode that follows.
	segScratch []wire.Segment

	userScratch []env.UserSnapshot
	rakeScratch []env.RakeSnapshot
	jobs        []rakeJob

	// The round's worker pool (pool.go): the unit list the jobs and the
	// dirty tools are laid out on, and the inputs its workers share.
	pool     roundPool
	roundCtx roundCtx

	// Shared-tool round state (tools.go): the snapshot the round was
	// planned from, the per-tool geometry memos (iso, plane, vortex) and
	// the derived-scalar cache.
	toolSnap env.ToolsState
	toolGeos [env.NumTools]toolGeom
	toolScal toolScalars

	// Governor state: the planner itself and the round's ladder — one
	// row per shared tool, then one per job — recycled across rounds.
	gov  *governor
	rows []demand

	stats Stats
}

// New builds the application and registers its procedures on a fresh
// dlib server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: nil store")
	}
	if cfg.Engine == nil {
		cfg.Engine = compute.Parallel{}
	}
	if cfg.Options.MaxSteps == 0 {
		cfg.Options = integrate.DefaultOptions()
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSeedsPerRake == 0 {
		cfg.MaxSeedsPerRake = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.RealClock
	}
	if cfg.MaxCodec == 0 {
		cfg.MaxCodec = wire.MaxCodec
	}
	if cfg.MaxCodec < wire.CodecV1 || cfg.MaxCodec > wire.MaxCodec {
		return nil, fmt.Errorf("server: MaxCodec %d outside [%d, %d]",
			cfg.MaxCodec, wire.CodecV1, wire.MaxCodec)
	}
	if cfg.Steer != (env.SteerParams{}) && !validSteerParams(cfg.Steer) {
		return nil, fmt.Errorf("server: steer seed %+v outside the steering envelope", cfg.Steer)
	}
	for i, p := range cfg.Tools {
		if id := env.ToolID(i + 1); !validToolParams(id, p) {
			return nil, fmt.Errorf("server: %v seed %+v out of bounds", id, p)
		}
	}
	src, ok := cfg.Store.(store.Source)
	if !ok {
		// An I/O-backed store: one resident set between the pipeline and
		// mass storage. With no budget configured it holds the wanted
		// run and nothing else.
		opts := store.CacheOptions{MaxSteps: cfg.CacheSteps, MaxBytes: cfg.CacheBytes, Prefetch: cfg.Prefetch}
		if opts.MaxSteps == 0 && opts.MaxBytes == 0 {
			opts.MaxSteps = 1
		}
		c, err := store.NewCache(cfg.Store, opts)
		if err != nil {
			return nil, err
		}
		src = c
	}
	s := &Server{
		d:        dlib.NewServer(),
		cfg:      cfg,
		src:      src,
		env:      env.New(cfg.Store.NumSteps()),
		gov:      &governor{budget: cfg.Budget},
		stats:    Stats{Budget: cfg.Budget},
		streaks:  make(map[int32]*integrate.Streak),
		geoCache: make(map[int32]*rakeGeom),
		round:    round{consumedBy: make(map[int64]bool)},
		quant:    wire.Quantizer{Min: cfg.Store.Grid().Bounds().Min, Max: cfg.Store.Grid().Bounds().Max},
		codecs:   make(map[int64]*sessionState),
	}
	// Every handler registered below returns a fresh buffer (the hello,
	// whoami, the round's codec-v1 reply) or a session-owned one
	// (codec-v2 frames and relay replies, sessionState.buf) —
	// dlib.Handler's reply-buffer contract.
	s.env.InitSteer(cfg.Steer)
	s.env.InitTools(cfg.Tools)
	s.d.Register(wire.ProcHello2, s.handleHello2)
	s.d.Register(wire.ProcFrame, s.handleFrame)
	s.d.Register(wire.ProcFrameRelay, s.handleFrameRelay)
	s.d.Register(wire.ProcWhoAmI, s.handleWhoAmI)
	s.d.OnDisconnect = func(id int64) {
		s.env.ReleaseAll(id)
		// Round accounting must not leak: a departed session's
		// consumed-mark would otherwise sit in the map forever (and a
		// reconnecting session gets a fresh id anyway). The session state
		// — codec shadow and reply buffer — dies with the session too;
		// that is what guarantees a reconnecting v2 workstation restarts
		// from a keyframe.
		s.mu.Lock()
		delete(s.round.consumedBy, id)
		delete(s.codecs, id)
		s.mu.Unlock()
	}
	return s, nil
}

// Dlib returns the underlying dlib server for Serve/Close.
func (s *Server) Dlib() *dlib.Server { return s.d }

// Env returns the shared environment (for local/in-process use, e.g.
// the stand-alone windtunnel mode and tests).
func (s *Server) Env() *env.Environment { return s.env }

// Stats returns a snapshot of the performance counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CacheStats reports the timestep cache's counters; ok is false when
// the server reads through no store.Cache (its store was a Source that
// is not one: a resident dataset, or a live ring).
func (s *Server) CacheStats() (stats store.CacheStats, ok bool) {
	c, ok := s.src.(*store.Cache)
	if !ok {
		return store.CacheStats{}, false
	}
	return c.Stats(), true
}
