package render

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/vmath"
)

// The ring's shape. A frame's transformed vertices never exist all at
// once: they pass through ringSlots slabs of slabVerts vertices (24 B
// each, 786 KB together — resident in cache, where the whole frame's
// 4 MB is not), and a worker transforms at most lookahead slabs past
// the one it is rastering. Measured on `heavy` (DESIGN.md, "Workstation
// renderer"): 6 x 1 024 and lookahead 2 gained nothing, 32 slots cost
// memory for no time.
const (
	slabVerts = 2048
	ringSlots = 16
	lookahead = 6
)

// maskEye in a run's mask means "the mask of the eye being drawn".
const maskEye ChannelMask = 1 << 7

type runKind uint8

const (
	kindPolyline  runKind = iota // segments between consecutive vertices
	kindTriangles                // three vertices a triangle, edges 0-1, 1-2, 2-0
	kindPoints
)

// run is one recorded draw call — or the part of one that fits in a
// slab — with every piece of Renderer state the draw reads.
type run struct {
	pts      []vmath.Vec3 // the caller's slice, or a piece of DisplayList.pts
	kind     runKind
	c        Color
	mask     ChannelMask
	additive bool
	cueOn    bool
	cueFloor float32
	mvp      int32 // 0: the eye's transform; else 1 + index into DisplayList.mvps
}

// eye is what differs between the two images of a frame.
type eye struct {
	mvp  vmath.Mat4
	mask ChannelMask
}

// DisplayList is the workstation's geometry stage: a frame's draw
// calls as the Scene recorded them, cut into slabs, and the ring of
// transformed vertices the row bands raster from. Each vertex is
// transformed once per eye, by whichever band worker has time for it.
// The zero value is ready to use; a list that outlives a frame keeps
// its buffers (not the caller's slices) for the next one. It serves
// one RenderAnaglyph at a time.
type DisplayList struct {
	recorder Renderer // what a Scene draws through
	runs     []run
	slabs    []int32      // slab s is runs[slabs[s-1]:slabs[s]], at most slabVerts vertices
	fill     int          // vertices in the slab being recorded
	pts      []vmath.Vec3 // points passed by value (Line, Point)
	mvps     []vmath.Mat4 // transforms set inside the scene

	// A frame is the slab sequence twice, left eye then right. Slab g
	// lives in slot g%slots from the moment a worker claims it (next)
	// until every worker's cursor has passed it.
	ring    [ringSlots][]vert
	ready   [ringSlots]atomic.Int64 // g+1 once slab g is transformed into the slot
	next    atomic.Int64            // the first slab nobody has claimed
	cursors []atomic.Int64          // per worker: the slab it rasters next

	// mayClaim, when a test sets it, restricts which worker may
	// transform which slab.
	mayClaim func(worker int, slab int64) bool
}

// record runs the scene against the recording Renderer.
func (dl *DisplayList) record(fb *Framebuffer, scene Scene) {
	dl.recorder = Renderer{FB: fb, y1: fb.H, mask: maskEye, list: dl}
	scene(&dl.recorder)
	if dl.fill > 0 {
		dl.closeSlab()
	}
}

// reset forgets the frame: the list must not pin the geometry it drew.
func (dl *DisplayList) reset() {
	clear(dl.runs)
	dl.recorder = Renderer{}
	dl.runs, dl.slabs, dl.pts, dl.mvps, dl.fill = dl.runs[:0], dl.slabs[:0], dl.pts[:0], dl.mvps[:0], 0
}

func (dl *DisplayList) closeSlab() {
	dl.slabs = append(dl.slabs, int32(len(dl.runs)))
	dl.fill = 0
}

// keep copies points passed by value into the list.
func (dl *DisplayList) keep(p ...vmath.Vec3) []vmath.Vec3 {
	n := len(dl.pts)
	dl.pts = append(dl.pts, p...)
	return dl.pts[n:len(dl.pts):len(dl.pts)]
}

// add records a draw call under r's current state, cutting it where a
// slab fills: a polyline repeats the vertex it is cut at, a soup is cut
// between triangles.
func (dl *DisplayList) add(r *Renderer, kind runKind, pts []vmath.Vec3, c Color) {
	least, shared := 1, 0 // the fewest vertices that draw anything; those a cut repeats
	switch kind {
	case kindPolyline:
		least, shared = 2, 1
	case kindTriangles:
		least = 3
	}
	rn := run{kind: kind, c: c, mask: r.mask, additive: r.Additive, cueOn: r.cueOn, cueFloor: r.cueFloor, mvp: r.mvpIdx}
	for len(pts) >= least {
		n := min(len(pts), slabVerts-dl.fill)
		if kind == kindTriangles {
			n -= n % 3
		}
		if n < least {
			dl.closeSlab()
			continue
		}
		rn.pts = pts[:n]
		dl.runs = append(dl.runs, rn)
		dl.fill += n
		if n == len(pts) {
			return
		}
		pts = pts[n-shared:]
	}
}

// draw renders the recorded frame into fb with one worker per band of
// rows, the caller being the first.
func (dl *DisplayList) draw(fb *Framebuffer, eyes *[2]eye, bands int) {
	dl.next.Store(0)
	for i := range dl.ready {
		dl.ready[i].Store(0)
	}
	if len(dl.cursors) != bands {
		dl.cursors = make([]atomic.Int64, bands)
	}
	for i := range dl.cursors {
		dl.cursors[i].Store(0)
	}
	var wg sync.WaitGroup
	for w := 1; w < bands; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dl.band(w, bands, fb, eyes)
		}()
	}
	dl.band(0, bands, fb, eyes)
	wg.Wait()
}

// band is worker w of a frame. It owns rows [w*H/bands, (w+1)*H/bands)
// and draws every slab onto them in recorded order, so each byte of
// those rows sees the writes one renderer would make. Between slabs it
// does its share of the transforming: it claims the next unclaimed slab
// while that is within lookahead of its own cursor and the slot is
// free. No barrier: a worker waits only for the one slab it needs next,
// and then only while another worker is already transforming it.
func (dl *DisplayList) band(w, bands int, fb *Framebuffer, eyes *[2]eye) {
	r := Renderer{FB: fb, y0: w * fb.H / bands, y1: (w + 1) * fb.H / bands}
	fb.clearRows(r.y0, r.y1, 0, 0, 0) // left eye: colour and depth
	per := int64(len(dl.slabs))
	// A scene never needs more slots than an eye has slabs — except a
	// one-slab scene, whose right eye would wait for every band to
	// finish the left.
	slots := min(max(per, 2), ringSlots)
	for cur := int64(0); cur < 2*per; {
		if g := dl.next.Load(); g < 2*per && g < cur+lookahead && dl.drawn(g-slots) &&
			(dl.mayClaim == nil || dl.mayClaim(w, g)) && dl.next.CompareAndSwap(g, g+1) {
			dl.transform(r.viewport(), &eyes[g/per], g%per, dl.slot(g%slots))
			dl.ready[g%slots].Store(g + 1)
			continue
		}
		if dl.ready[cur%slots].Load() != cur+1 {
			runtime.Gosched()
			continue
		}
		if cur == per {
			fb.clearZRows(r.y0, r.y1) // right eye: depth only, red survives
		}
		dl.raster(&r, &eyes[cur/per], cur%per, dl.ring[cur%slots])
		cur++
		dl.cursors[w].Store(cur)
	}
}

// drawn reports whether every worker has rastered slab g.
func (dl *DisplayList) drawn(g int64) bool {
	for i := range dl.cursors {
		if dl.cursors[i].Load() <= g {
			return false
		}
	}
	return true
}

// slot returns ring slot i, allocated on first use: a small scene
// never touches most of the ring.
func (dl *DisplayList) slot(i int64) []vert {
	if dl.ring[i] == nil {
		dl.ring[i] = make([]vert, slabVerts)
	}
	return dl.ring[i]
}

// mvp is the transform run rn draws under for eye e.
func (dl *DisplayList) mvp(rn *run, e *eye) *vmath.Mat4 {
	if rn.mvp != 0 {
		return &dl.mvps[rn.mvp-1]
	}
	return &e.mvp
}

// load puts the state run rn was recorded under, for eye e, on r.
func (dl *DisplayList) load(r *Renderer, rn *run, e *eye) {
	r.mvp, r.mask = *dl.mvp(rn, e), e.mask
	if rn.mask != maskEye {
		r.mask = rn.mask
	}
	r.Additive, r.cueOn, r.cueFloor = rn.additive, rn.cueOn, rn.cueFloor
}

// slabRuns returns the runs of slab s.
func (dl *DisplayList) slabRuns(s int64) []run {
	first := int32(0)
	if s > 0 {
		first = dl.slabs[s-1]
	}
	return dl.runs[first:dl.slabs[s]]
}

// transform fills v with the vertices of slab s as eye e sees them:
// line and triangle runs through transformVerts, points through
// pointVert. A points run's matrix and the viewport are locals: the
// stores into v could alias anything behind a pointer, so read through
// one they would be reloaded for every vertex.
//
//vw:hotpath
func (dl *DisplayList) transform(vp viewport, e *eye, s int64, v []vert) {
	runs := dl.slabRuns(s)
	for i := range runs {
		rn := &runs[i]
		out := v[:len(rn.pts)]
		v = v[len(rn.pts):]
		if rn.kind == kindPoints {
			m := *dl.mvp(rn, e)
			for j, p := range rn.pts {
				out[j] = vp.pointVert(m.TransformPointW(p))
			}
			continue
		}
		transformVerts(dl.mvp(rn, e), vp, rn.pts, out)
	}
}

// raster draws slab s, transformed into v for eye e, onto r's rows.
//
//vw:hotpath
func (dl *DisplayList) raster(r *Renderer, e *eye, s int64, v []vert) {
	runs := dl.slabRuns(s)
	for i := range runs {
		rn := &runs[i]
		dl.load(r, rn, e)
		// This worker's own ink: the depth cue rewrites it per pixel.
		k := r.ink(rn.c)
		pts, vs := rn.pts, v[:len(rn.pts)]
		v = v[len(rn.pts):]
		switch rn.kind {
		case kindPolyline:
			for j := 1; j < len(vs); j++ {
				r.edge(&vs[j-1], &vs[j], &pts[j-1], &pts[j], &k)
			}
		case kindTriangles:
			for j := 0; j+2 < len(vs); j += 3 {
				r.edge(&vs[j], &vs[j+1], &pts[j], &pts[j+1], &k)
				r.edge(&vs[j+1], &vs[j+2], &pts[j+1], &pts[j+2], &k)
				r.edge(&vs[j+2], &vs[j], &pts[j+2], &pts[j], &k)
			}
		case kindPoints:
			for j := range vs {
				r.plot(&vs[j], &k)
			}
		}
	}
}
