// Package relay implements the windtunnel's cluster tier: a node that
// sits between workstations and a set of upstream compute servers (or
// further relays — the protocol chains), routing sessions and caching
// frames so the origin ships each round once per relay instead of once
// per workstation.
//
// Session routing. Each downstream session is pinned at its first call
// (the hello) to one upstream by static round-robin partition and gets
// its own upstream dlib connection, held in the session's record on its
// dlib.Session. That one-to-one mapping is what keeps the
// distributed semantics untouched by the hop: the origin sees one
// session per workstation, so per-user identity (WhoAmI proxies the
// origin's id), FCFS rake-lock ownership, and the per-session
// round-advance rule all work exactly as if the workstation were
// directly connected. When a downstream session disconnects, its
// upstream connection closes with it, releasing the user's rake locks
// at the origin.
//
// Frame caching. Frame content, unlike session state, is shared: all
// sessions on an upstream consume the same round payloads. Every
// downstream frame call is forwarded upstream as one ProcFrameRelay
// exchange carrying the workstation's update verbatim plus the relay's
// cache state; the origin answers a few-byte marker when the relay
// already holds the current round, or a full payload otherwise. This
// generalizes the server's encode-once round reply across the network:
// the expensive leg (origin to relay) carries each round's bytes once,
// and the relay re-fans them to its local workstations.
//
// Byte identity. Relay-delivered frames are byte-identical per
// (client, round) to direct connection, because a relay answers with
// the origin's serve rule: its session record is the origin's
// (wire.Session), and its frame and chained-relay answers are the
// origin's two functions (AnswerFrame, AnswerRelay), handed the upstream
// cache as the round (upCache is a wire.Round). Codec v1 is the origin's
// round buffer re-shipped verbatim. Codec v2 never re-quantizes: the
// cache holds the origin's encoded per-rake segments (shipped in the
// full reply's geometry directory, delta'd against the relay's shadow)
// and the session's FrameEncoder is fed the origin's sequence numbers
// and segment bytes — so the delta decisions and the bytes match a
// direct connection exactly.
//
// Upstream failure. When the upstream connection dies, the origin-side
// session identity is gone, so the relay hangs up the affected
// downstream connections (dlib.Ctx.Hangup) instead of silently
// redialing: the workstation's own resilience layer redials, replays
// its handshake, and resyncs from a keyframe — the same recovery path
// as losing a direct connection. The failed leg also empties that
// upstream's round cache: a restarted origin numbers its rounds from 1
// again, and a cached round number it happens to reach would be
// answered with a marker for the dead process's frame. A session that
// dials the restarted origin before any leg has seen the failure can
// still be answered that marker; closing the window needs an origin
// identity on the wire.
//
// Stalled upstream. dlib dispatch is serial, so a leg that never
// answers would hold every session of the relay behind it. Each call on
// a leg is bounded by legTimeout; on expiry the leg is closed and the
// session hung up, as for any other upstream failure.
//
// Procedures. A relay answers what an origin answers — vw.hello2,
// vw.whoami, vw.frame and vw.framerelay — so workstations connect to
// either and relays chain.
//
//vw:deterministic
//vw:wire
package relay

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dlib"
	"repro/internal/wire"
)

// Config assembles a relay node.
type Config struct {
	// Upstreams dials the compute servers (or parent relays) this node
	// fans in to. Sessions are pinned round-robin: session k uses
	// Upstreams[k mod len(Upstreams)] — a static partition, so a
	// workstation keeps one environment for its whole session.
	Upstreams []dlib.DialFunc
}

// Stats is a snapshot of relay counters.
type Stats struct {
	// Sessions is the current downstream session count.
	Sessions int
	// UpFulls counts full round payloads fetched from upstreams;
	// UpMarkers counts round-unchanged marker replies (the cache hit:
	// the round's bytes did not cross the upstream link again).
	// UpBytes sums the upstream reply bytes for both.
	UpFulls   int64
	UpMarkers int64
	UpBytes   int64
	// DownFrames / DownBytes count frames and bytes served to
	// downstream workstations (and chained relays); V2Frames is the
	// codec-v2 subset of DownFrames.
	DownFrames int64
	DownBytes  int64
	V2Frames   int64
	// Hangups counts downstream connections closed because their
	// upstream connection died.
	Hangups int64
}

// HitRate is the fraction of upstream frame exchanges answered by a
// marker — the share of downstream frames that cost the origin link
// nothing but the exchange itself.
func (s Stats) HitRate() float64 {
	total := s.UpFulls + s.UpMarkers
	if total == 0 {
		return 0
	}
	return float64(s.UpMarkers) / float64(total)
}

// Add accumulates other into s — a tier of nodes counted as one.
func (s *Stats) Add(other Stats) {
	s.Sessions += other.Sessions
	s.UpFulls += other.UpFulls
	s.UpMarkers += other.UpMarkers
	s.UpBytes += other.UpBytes
	s.DownFrames += other.DownFrames
	s.DownBytes += other.DownBytes
	s.V2Frames += other.V2Frames
	s.Hangups += other.Hangups
}

// upCache is the shared round cache for one upstream: the last full
// payload fetched by any session pinned there. dlib dispatch is
// serial, so handlers access it without extra locking.
type upCache struct {
	round uint64
	// frame is the origin's codec-v1 round buffer, verbatim — replaced
	// by each new round, never rewritten in place, because v1 replies
	// still being written reference the old one (nil until the first
	// full fetch); meta is what a skim of it reads — header, users,
	// rakes, source keys, tool states, never a point.
	frame []byte
	meta  wire.FrameReply
	// wantSegs turns sticky once any v2 consumer exists on this
	// upstream, so every later full fetch carries a directory. rows is
	// the round's directory resolved at install: one row per source in
	// frame order (rakes, then tools), each with the origin-encoded
	// codec-v2 segment — the rows a v2 frame is assembled from, and the
	// shadow the next request sends. haveRows is false until a full
	// fetch with a directory installs them (a full fetched before
	// wantSegs has none), and a v2 consumer then forces one.
	wantSegs bool
	rows     []wire.Segment
	haveRows bool
}

// legTimeout bounds each call on a session's upstream leg, below the
// workstation's own call bound so the relay gives up first.
const legTimeout = dlib.DeployedCallTimeout / 2

// session is the relay's record of one downstream session, kept in its
// dlib.Session.State: the pinned upstream leg and the timer that closes
// it when a call on it outlives legTimeout, the codec record the
// origin keeps for a direct connection (the codec is the origin's hello2
// answer, proxied), and the scratch the upstream request is assembled
// in.
type session struct {
	idx   int // upstream index
	up    *dlib.Client
	stall *time.Timer // armed only while a call is on up
	wire.Session
	req []byte
}

// Relay is a session router + frame cache node on a dlib server.
type Relay struct {
	d   *dlib.Server
	cfg Config

	// mu guards nextUp, stats and each session's State against
	// OnDisconnect (conn goroutines), Close and Stats() readers;
	// handler-only state (caches, per-session scratch) is serialized by
	// dlib dispatch.
	mu     sync.Mutex
	nextUp int
	stats  Stats

	caches []*upCache
}

// New builds a relay and registers its procedures on a fresh dlib
// server. The downstream surface is identical to a compute server's,
// which is what lets workstations connect to either interchangeably
// and relays chain.
func New(cfg Config) (*Relay, error) {
	if len(cfg.Upstreams) == 0 {
		return nil, fmt.Errorf("relay: no upstreams")
	}
	r := &Relay{
		d:      dlib.NewServer(),
		cfg:    cfg,
		caches: make([]*upCache, len(cfg.Upstreams)),
	}
	for i := range r.caches {
		r.caches[i] = &upCache{}
	}
	// Every reply meets dlib.Handler's buffer contract without a hook:
	// proxied calls return the upstream client's freshly read reply; a v1
	// frame is upCache.frame, which a new round replaces and never
	// rewrites in place; v2 and chained frames are assembled in the
	// calling session's wire.Session, which only that session's next call
	// rewrites.
	r.d.Register(wire.ProcHello2, r.handleHello2)
	r.d.Register(wire.ProcWhoAmI, r.handleWhoAmI)
	r.d.Register(wire.ProcFrame, r.handleFrame)
	r.d.Register(wire.ProcFrameRelay, r.handleFrameRelay)
	// Closing the upstream leg is what releases this user's FCFS rake
	// locks at the origin.
	r.d.OnDisconnect = r.closeLeg
	return r, nil
}

// Dlib returns the underlying dlib server for Serve/Close.
func (r *Relay) Dlib() *dlib.Server { return r.d }

// Stats returns a snapshot of the relay counters.
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	s.Sessions = r.d.NumSessions()
	return s
}

// Close tears down every upstream connection. Downstream connections
// are owned by the dlib server's listener/ServeConn callers.
func (r *Relay) Close() {
	for _, sess := range r.d.Sessions() {
		r.closeLeg(sess)
	}
}

// closeLeg closes the upstream leg of a downstream session, if it has
// one.
func (r *Relay) closeLeg(sess *dlib.Session) {
	r.mu.Lock()
	st, _ := sess.State.(*session)
	r.mu.Unlock()
	if st != nil {
		st.up.Close()
	}
}

// ensureSession returns the downstream session's record, dialing and
// pinning its upstream leg on first contact.
func (r *Relay) ensureSession(ctx *dlib.Ctx) (*session, error) {
	if st, ok := ctx.Session.State.(*session); ok {
		return st, nil
	}
	r.mu.Lock()
	idx := r.nextUp % len(r.cfg.Upstreams)
	r.nextUp++
	r.mu.Unlock()
	conn, err := r.cfg.Upstreams[idx]()
	if err != nil {
		return nil, fmt.Errorf("relay: dial upstream %d: %w", idx, err)
	}
	st := &session{idx: idx, up: dlib.NewClient(conn)}
	st.stall = time.AfterFunc(legTimeout, func() { st.up.Close() }) //vw:allow wallclock -- a stalled leg is bounded in real time, as the workstation's call is
	st.stall.Stop()
	r.mu.Lock()
	ctx.Session.State = st
	r.mu.Unlock()
	return st, nil
}

// upcall forwards one call on the session's upstream leg, bounded by
// legTimeout. A remote error passes through (the origin rejected the
// call; the session is healthy). A transport error, the bound's expiry
// included, means the origin-side identity is gone: the upstream client
// is closed and the downstream connection is hung up after the error
// reply, so the workstation redials and rebuilds a coherent session
// across both hops. The upstream's round cache goes too — the origin
// that answers the redial may be a restarted one — keeping only whether
// a v2 consumer wants directories.
func (r *Relay) upcall(ctx *dlib.Ctx, st *session, proc string, payload []byte) ([]byte, error) {
	st.stall.Reset(legTimeout)
	rep, err := st.up.Call(proc, payload)
	if !st.stall.Stop() && err != nil {
		err = fmt.Errorf("no reply within %v: %w", legTimeout, err)
	}
	if err != nil {
		var re *dlib.RemoteError
		if errors.As(err, &re) {
			return nil, err
		}
		st.up.Close()
		ctx.Hangup()
		c := r.caches[st.idx]
		*c = upCache{wantSegs: c.wantSegs}
		r.mu.Lock()
		r.stats.Hangups++
		r.mu.Unlock()
		return nil, fmt.Errorf("relay: upstream %d lost: %w", st.idx, err)
	}
	return rep, nil
}

// handleHello2 proxies codec negotiation to the origin — the origin's
// MaxCodec cap must bind across the hop — and records the answer so
// the relay knows how to serve this session's frames: the same
// wire.Session.Hello the origin runs for a direct connection.
func (r *Relay) handleHello2(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	st, err := r.ensureSession(ctx)
	if err != nil {
		return nil, err
	}
	rep, err := r.upcall(ctx, st, wire.ProcHello2, payload)
	if err != nil {
		return nil, err
	}
	codec, _, err := wire.DecodeHelloReply(rep)
	if err != nil {
		return nil, fmt.Errorf("relay: upstream hello2 reply: %w", err)
	}
	st.Hello(codec)
	if codec >= wire.CodecV2 {
		r.caches[st.idx].wantSegs = true
	}
	return rep, nil
}

func (r *Relay) handleWhoAmI(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	st, err := r.ensureSession(ctx)
	if err != nil {
		return nil, err
	}
	// The origin's session id, not the relay's: rake Holder fields in
	// frames carry origin ids, and the workstation matches itself by
	// this answer.
	return r.upcall(ctx, st, wire.ProcWhoAmI, payload)
}

// fetchRound runs one upstream frame exchange for st — the update is
// applied at the origin and the session's round advances per the
// origin's rules — and brings this upstream's cache to the resulting
// round. needSegs forces a full fetch when the cache holds no
// directory for its round, and fails the exchange if it still holds
// none.
func (r *Relay) fetchRound(ctx *dlib.Ctx, st *session, update []byte, needSegs bool) (*upCache, error) {
	c := r.caches[st.idx]
	if needSegs {
		c.wantSegs = true
	}
	req := wire.RelayFrameRequest{
		WantSegs:  c.wantSegs,
		LastRound: c.round,
		Update:    update,
	}
	if req.WantSegs {
		// Frame order is deterministic, so two identically-cached relays
		// send the same request bytes.
		req.Shadow = c.rows
	}
	if needSegs && !c.haveRows {
		// The cached round predates this upstream's first v2 consumer:
		// its directory was never fetched. Round 0 never matches a live
		// round, so the origin must answer full.
		req.LastRound = 0
	}
	st.req = wire.AppendRelayFrameRequest(st.req[:0], req)
	raw, err := r.upcall(ctx, st, wire.ProcFrameRelay, st.req)
	if err != nil {
		return nil, err
	}
	rep, err := wire.DecodeRelayFrameReply(raw)
	if err != nil {
		return nil, fmt.Errorf("relay: upstream %d reply: %w", st.idx, err)
	}
	r.mu.Lock()
	r.stats.UpBytes += int64(len(raw))
	if rep.Full {
		r.stats.UpFulls++
	} else {
		r.stats.UpMarkers++
	}
	r.mu.Unlock()
	if !rep.Full {
		if rep.Round != c.round || c.frame == nil {
			return nil, fmt.Errorf("relay: upstream %d marked round %d but cache holds %d", st.idx, rep.Round, c.round)
		}
	} else if err := c.install(rep); err != nil {
		return nil, fmt.Errorf("relay: upstream %d: %w", st.idx, err)
	}
	if needSegs && !c.haveRows {
		return nil, fmt.Errorf("relay: no segment directory for round %d", c.round)
	}
	return c, nil
}

// install makes a full reply the cached round. It skims the frame —
// the relay forwards its bytes and reads only what they say about the
// round — and resolves the directory into rows aligned with it, before
// anything is installed: a reply refused here leaves the cache on the
// round it held, whole. The frame adopts the reply allocation (dlib
// replies are freshly read per call); inline segments are copied, so
// rows carried over by reference never pin old reply buffers.
func (c *upCache) install(rep wire.RelayFrameReply) error {
	meta, err := wire.SkimFrameReply(rep.Frame)
	if err != nil {
		return err
	}
	var rows []wire.Segment
	if rep.HasDir {
		nRakes, nTools := len(meta.Geometry), 0
		if meta.Tools != nil {
			nTools = len(meta.Tools.Geoms)
		}
		if len(rep.Dir) > nRakes+nTools {
			return fmt.Errorf("round %d directory has %d rows for %d sources", rep.Round, len(rep.Dir), nRakes+nTools)
		}
		rows = make([]wire.Segment, nRakes+nTools)
		for i := range rows {
			var key int32
			if i < nRakes {
				key = meta.Geometry[i].Rake
			} else {
				key = -int32(meta.Tools.Geoms[i-nRakes].Tool)
			}
			if i >= len(rep.Dir) || rep.Dir[i].Key != key {
				return fmt.Errorf("round %d lists source %d but its directory has no segment for it at row %d", rep.Round, key, i)
			}
			if rows[i] = rep.Dir[i]; rows[i].Bytes != nil {
				rows[i].Bytes = append([]byte(nil), rows[i].Bytes...)
			} else if rows[i], err = c.held(rows[i]); err != nil {
				return err
			}
		}
	}
	c.round, c.frame, c.meta = rep.Round, rep.Frame, meta
	c.rows, c.haveRows = rows, rep.HasDir
	return nil
}

// upCache is the wire.Round a relay's sessions are answered from: the
// cached round's number, its skimmed header, the origin's v1 bytes and
// the rows its directory resolved to.
func (c *upCache) ID() uint64               { return c.round }
func (c *upCache) Header() *wire.FrameReply { return &c.meta }
func (c *upCache) V1() []byte               { return c.frame }
func (c *upCache) Rows() []wire.Segment     { return c.rows }

// held resolves a directory reference against the rows the cache holds.
func (c *upCache) held(ref wire.Segment) (wire.Segment, error) {
	for _, row := range c.rows {
		if row.Key == ref.Key && row.Seq == ref.Seq {
			return row, nil
		}
	}
	return wire.Segment{}, fmt.Errorf("referenced segment (%d, %d) not in cache", ref.Key, ref.Seq)
}

// handleFrame serves a workstation's frame from the (refreshed) round
// cache, with the origin's frame answer: codec v1 gets the origin's
// round buffer verbatim, codec v2 a per-session delta assembly from the
// origin's cached segments.
//
//vw:hotpath
func (r *Relay) handleFrame(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	return r.serve(ctx, payload, nil)
}

// handleFrameRelay serves a chained (child) relay with the origin's
// relay answer, delta'd against the child's shadow, not ours.
func (r *Relay) handleFrameRelay(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	req, err := wire.DecodeRelayFrameRequest(payload)
	if err != nil {
		return nil, err
	}
	return r.serve(ctx, req.Update, &req)
}

// serve is both frame procedures after their decode: the session's
// round is fetched through its upstream leg — with its rows, for a v2
// session or a child relay that wants segments — and the serve rule
// answers it from the cache: a frame, or for a child's request req the
// relay answer.
//
//vw:hotpath
func (r *Relay) serve(ctx *dlib.Ctx, update []byte, req *wire.RelayFrameRequest) ([]byte, error) {
	st, err := r.ensureSession(ctx)
	if err != nil {
		return nil, err
	}
	needSegs := st.Codec >= wire.CodecV2
	if req != nil {
		needSegs = req.WantSegs
	}
	c, err := r.fetchRound(ctx, st, update, needSegs)
	if err != nil {
		return nil, err
	}
	var reply []byte
	var sent wire.Shipped
	if req != nil {
		reply, sent = st.AnswerRelay(req, c)
	} else {
		reply, sent = st.AnswerFrame(c)
	}
	r.mu.Lock()
	r.stats.DownFrames++
	r.stats.DownBytes += int64(len(reply))
	if sent.V2 {
		r.stats.V2Frames++
	}
	r.mu.Unlock()
	return reply, nil
}
