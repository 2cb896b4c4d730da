package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vmath"
)

// --- quantization properties -----------------------------------------

// randBox draws a bounding box, sometimes degenerate: each axis is
// flat (zero extent) with probability 1/4.
func randBox(rng *rand.Rand) Quantizer {
	axis := func() (float32, float32) {
		lo := float32(rng.NormFloat64() * 100)
		if rng.Intn(4) == 0 {
			return lo, lo // flat axis
		}
		return lo, lo + float32(rng.Float64()*1000+1e-6)
	}
	var q Quantizer
	q.Min.X, q.Max.X = axis()
	q.Min.Y, q.Max.Y = axis()
	q.Min.Z, q.Max.Z = axis()
	return q
}

// inBoxPoint draws a point inside the box (on the axis minimum for
// flat axes).
func inBoxPoint(rng *rand.Rand, q Quantizer) vmath.Vec3 {
	lerp := func(lo, hi float32) float32 {
		return float32(float64(lo) + rng.Float64()*(float64(hi)-float64(lo)))
	}
	return vmath.Vec3{
		X: lerp(q.Min.X, q.Max.X),
		Y: lerp(q.Min.Y, q.Max.Y),
		Z: lerp(q.Min.Z, q.Max.Z),
	}
}

// TestQuantizerRoundTripError pins the codec's error contract: for any
// box (including degenerate flat ones) and any in-box point, the
// quantize/dequantize round trip lands within MaxError per axis, plus
// a float32 representation slack proportional to the coordinate
// magnitude.
func TestQuantizerRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		q := randBox(rng)
		bound := q.MaxError()
		for i := 0; i < 100; i++ {
			p := inBoxPoint(rng, q)
			got := q.RoundTrip(p)
			check := func(axis string, have, want, maxErr, scale float32) {
				slack := float32(math.Abs(float64(scale))) * 1e-5
				if diff := float32(math.Abs(float64(have) - float64(want))); diff > maxErr+slack {
					t.Fatalf("trial %d: %s error %g exceeds %g (+%g slack); box [%v,%v] point %v",
						trial, axis, diff, maxErr, slack, q.Min, q.Max, p)
				}
			}
			check("x", got.X, p.X, bound.X, q.Max.X)
			check("y", got.Y, p.Y, bound.Y, q.Max.Y)
			check("z", got.Z, p.Z, bound.Z, q.Max.Z)
		}
	}
}

// TestQuantizerDegenerateBox pins the flat-axis contract exactly: a
// zero-extent axis always round-trips to the axis minimum with zero
// error, and never divides by zero.
func TestQuantizerDegenerateBox(t *testing.T) {
	q := Quantizer{Min: vmath.V3(3, -2, 7), Max: vmath.V3(3, -2, 7)}
	for _, p := range []vmath.Vec3{q.Min, vmath.V3(100, -100, 0), vmath.V3(3, -2, 7.0001)} {
		if got := q.RoundTrip(p); got != q.Min {
			t.Errorf("flat box round trip of %v = %v, want %v", p, got, q.Min)
		}
	}
}

// TestQuantizerIdempotent: quantizing a dequantized point returns the
// same triple — the codec is stable under repeated round trips.
func TestQuantizerIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		q := randBox(rng)
		p := inBoxPoint(rng, q)
		x1, y1, z1 := q.quant(p)
		x2, y2, z2 := q.quant(q.dequant(x1, y1, z1))
		if x1 != x2 || y1 != y2 || z1 != z2 {
			t.Fatalf("quant not idempotent: (%d,%d,%d) -> (%d,%d,%d)", x1, y1, z1, x2, y2, z2)
		}
	}
}

// TestQuantizerClampsOutOfBox: points beyond the box land on its
// faces, never outside, and hostile uint16 inputs always dequantize
// into the box.
func TestQuantizerClampsOutOfBox(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	got := q.RoundTrip(vmath.V3(-5, 20, 1e30))
	if got.X != 0 || got.Y != 10 || got.Z != 10 {
		t.Errorf("out-of-box round trip = %v", got)
	}
	for _, raw := range []uint16{0, 1, 32767, 65534, 65535} {
		p := q.dequant(raw, raw, raw)
		for _, v := range []float32{p.X, p.Y, p.Z} {
			if v < 0 || v > 10 {
				t.Errorf("dequant(%d) = %v escapes the box", raw, p)
			}
		}
	}
}

// --- varint properties -----------------------------------------------

// TestUvarintRoundTripHostile round-trips boundary and random values
// and rejects every truncation of their encodings, plus overlong
// encodings that overflow 64 bits.
func TestUvarintRoundTripHostile(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, math.MaxUint64}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		values = append(values, rng.Uint64())
	}
	for _, v := range values {
		e := encoder{}
		e.uvarint(v)
		d := decoder{buf: e.buf}
		if got := d.uvarint(); d.err != nil || got != v {
			t.Fatalf("round trip %d -> %d (err %v)", v, got, d.err)
		}
		if len(d.buf) != 0 {
			t.Fatalf("value %d left %d bytes", v, len(d.buf))
		}
		// Every proper prefix must fail, not misparse.
		for cut := 0; cut < len(e.buf); cut++ {
			d := decoder{buf: e.buf[:cut]}
			d.uvarint()
			if d.err == nil {
				t.Fatalf("truncated varint (%d of %d bytes) decoded silently", cut, len(e.buf))
			}
		}
	}
	// 10 continuation bytes overflow uint64: binary.Uvarint reports
	// n < 0, which must surface as an error.
	overlong := bytes.Repeat([]byte{0xff}, 10)
	d := decoder{buf: overlong}
	d.uvarint()
	if d.err == nil {
		t.Error("overlong varint decoded silently")
	}
}

// --- delta frame properties ------------------------------------------

// randGeometry builds a random geometry for a rake: a few lines of a
// few points each inside the quantizer's box.
func randGeometry(rng *rand.Rand, rake int32, q Quantizer) Geometry {
	g := Geometry{Rake: rake, Tool: uint8(rng.Intn(3))}
	nLines := rng.Intn(4) + 1
	for l := 0; l < nLines; l++ {
		line := make([]vmath.Vec3, rng.Intn(20))
		for p := range line {
			line[p] = inBoxPoint(rng, q)
		}
		g.Lines = append(g.Lines, line)
	}
	return g
}

// quantReference returns the geometry the decoder must reconstruct:
// every point round-tripped through the quantizer.
func quantReference(g Geometry, q Quantizer) Geometry {
	out := Geometry{Rake: g.Rake, Tool: g.Tool, Lines: make([][]vmath.Vec3, len(g.Lines))}
	for l, line := range g.Lines {
		nl := make([]vmath.Vec3, len(line))
		for p := range line {
			nl[p] = q.RoundTrip(line[p])
		}
		out.Lines[l] = nl
	}
	return out
}

func geometriesEqual(a, b Geometry) bool {
	if a.Rake != b.Rake || a.Tool != b.Tool || len(a.Lines) != len(b.Lines) {
		return false
	}
	for l := range a.Lines {
		if len(a.Lines[l]) != len(b.Lines[l]) {
			return false
		}
		for p := range a.Lines[l] {
			if a.Lines[l][p] != b.Lines[l][p] {
				return false
			}
		}
	}
	return true
}

// TestDeltaEncodeDecodeIdentity is the codec's core property:
// delta-apply ∘ delta-encode == identity (up to quantization) over
// randomized rake version histories — rakes mutate, hold still, appear,
// and disappear at random; every decoded frame must equal the
// quantized reference, and steady frames must actually shrink.
func TestDeltaEncodeDecodeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		q := randBox(rng)
		enc := NewFrameEncoder()
		dec := NewFrameDecoder(q)

		type rakeState struct {
			geo Geometry
			seq uint64
		}
		live := map[int32]*rakeState{}
		var nextSeq uint64
		var nextRake int32 = 1

		for round := 0; round < 40; round++ {
			// Mutate the population.
			for id, st := range live {
				switch rng.Intn(5) {
				case 0: // content change
					st.geo = randGeometry(rng, id, q)
					nextSeq++
					st.seq = nextSeq
				case 1: // rake removed
					delete(live, id)
				}
			}
			if len(live) < 5 && rng.Intn(2) == 0 {
				id := nextRake
				nextRake++
				nextSeq++
				live[id] = &rakeState{geo: randGeometry(rng, id, q), seq: nextSeq}
			}

			// Deterministic frame order: ascending rake id.
			var r FrameReply
			r.Round = uint64(round)
			var seqs []uint64
			for id := int32(1); id < nextRake; id++ {
				if st, ok := live[id]; ok {
					r.Geometry = append(r.Geometry, st.geo)
					seqs = append(seqs, st.seq)
				}
			}

			buf := enc.AppendFrame(nil, r, frameRows(r, q, seqs...))
			got, err := dec.Decode(buf)
			if err != nil {
				t.Fatalf("trial %d round %d: decode: %v", trial, round, err)
			}
			if len(got.Geometry) != len(r.Geometry) {
				t.Fatalf("trial %d round %d: %d geometries, want %d",
					trial, round, len(got.Geometry), len(r.Geometry))
			}
			for i := range r.Geometry {
				want := quantReference(r.Geometry[i], q)
				if !geometriesEqual(got.Geometry[i], want) {
					t.Fatalf("trial %d round %d: rake %d mismatch after delta round trip",
						trial, round, r.Geometry[i].Rake)
				}
			}
			if enc.LastInline+enc.LastRef != len(r.Geometry) {
				t.Fatalf("directory counts %d+%d != %d",
					enc.LastInline, enc.LastRef, len(r.Geometry))
			}
		}
	}
}

// TestDeltaSteadyFramesAreRefs: once a rake has shipped, unchanged
// rounds reference it instead of re-sending, and the frame shrinks to
// a fraction of the keyframe.
func TestDeltaSteadyFramesAreRefs(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	enc := NewFrameEncoder()
	var r FrameReply
	rng := rand.New(rand.NewSource(5))
	for i := int32(1); i <= 3; i++ {
		g := randGeometry(rng, i, q)
		for len(g.Lines[0]) < 50 { // make it big enough to measure
			g.Lines[0] = append(g.Lines[0], inBoxPoint(rng, q))
		}
		r.Geometry = append(r.Geometry, g)
	}
	seqs := []uint64{1, 2, 3}
	key := enc.AppendFrame(nil, r, frameRows(r, q, seqs...))
	if enc.LastInline != 3 || enc.LastRef != 0 {
		t.Fatalf("keyframe: inline=%d ref=%d", enc.LastInline, enc.LastRef)
	}
	steady := enc.AppendFrame(nil, r, frameRows(r, q, seqs...))
	if enc.LastInline != 0 || enc.LastRef != 3 {
		t.Fatalf("steady: inline=%d ref=%d", enc.LastInline, enc.LastRef)
	}
	if len(steady)*4 > len(key) {
		t.Errorf("steady frame %dB not <1/4 of keyframe %dB", len(steady), len(key))
	}
	dec := NewFrameDecoder(q)
	if _, err := dec.Decode(key); err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(steady)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalPoints() != r.TotalPoints() {
		t.Errorf("steady decode %d points, want %d", got.TotalPoints(), r.TotalPoints())
	}
}

// TestAppendFrameAllocs pins the per-session encode at zero
// allocations once its buffers are warm, at both ends of the delta
// spectrum: a keyframe (shadow reset, every cached segment inlined) and
// a steady frame (every source a reference). This is the session-side
// half of the server's TestSteadyFrameAllocs budget.
func TestAppendFrameAllocs(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	rng := rand.New(rand.NewSource(9))
	var r FrameReply
	var segs []Segment
	for i := int32(1); i <= 8; i++ {
		g := randGeometry(rng, i, q)
		r.Rakes = append(r.Rakes, RakeState{ID: i, NumSeeds: uint32(len(g.Lines))})
		r.Geometry = append(r.Geometry, g)
		// Pre-encoded segments, as the server's encode-once cache holds.
		segs = append(segs, Segment{Key: i, Seq: uint64(i), Bytes: AppendGeomV2(nil, g, q)})
	}
	enc := NewFrameEncoder()
	buf := enc.AppendFrame(nil, r, segs)
	if got := testing.AllocsPerRun(100, func() {
		enc.Reset()
		buf = enc.AppendFrame(buf[:0], r, segs)
	}); got != 0 || enc.LastInline != len(segs) {
		t.Errorf("keyframe: %.0f allocs with %d of %d inlined, want 0 with all", got, enc.LastInline, len(segs))
	}
	if got := testing.AllocsPerRun(100, func() {
		buf = enc.AppendFrame(buf[:0], r, segs)
	}); got != 0 || enc.LastRef != len(segs) {
		t.Errorf("steady: %.0f allocs with %d of %d referenced, want 0 with all", got, enc.LastRef, len(segs))
	}
}

// TestDecodeRefToUnknownRake: a reference record for geometry the
// decoder never received is a hard error, not a panic or silent skip.
func TestDecodeRefToUnknownRake(t *testing.T) {
	q := Quantizer{Max: vmath.V3(1, 1, 1)}
	enc := NewFrameEncoder()
	r := FrameReply{Geometry: []Geometry{{Rake: 7, Lines: [][]vmath.Vec3{{{X: 0.5}}}}}}
	// Teach the encoder the rake, then ask a *fresh* decoder to resolve
	// the resulting reference.
	enc.AppendFrame(nil, r, frameRows(r, q, 9))
	refFrame := enc.AppendFrame(nil, r, frameRows(r, q, 9))
	dec := NewFrameDecoder(q)
	if _, err := dec.Decode(refFrame); err == nil {
		t.Fatal("reference to never-sent rake decoded silently")
	}
	// Same rake, wrong sequence: also an error.
	dec2 := NewFrameDecoder(q)
	enc2 := NewFrameEncoder()
	key := enc2.AppendFrame(nil, r, frameRows(r, q, 8))
	if _, err := dec2.Decode(key); err != nil {
		t.Fatal(err)
	}
	if _, err := dec2.Decode(refFrame); err == nil {
		t.Fatal("reference to wrong sequence decoded silently")
	}
}

// TestDeltaRemovedRakePrunes: after a rake leaves the frame, both ends
// prune it; re-adding the id with a new sequence re-inlines.
func TestDeltaRemovedRakePrunes(t *testing.T) {
	q := Quantizer{Max: vmath.V3(1, 1, 1)}
	enc := NewFrameEncoder()
	dec := NewFrameDecoder(q)
	g := Geometry{Rake: 1, Lines: [][]vmath.Vec3{{{X: 0.25}}}}
	full := FrameReply{Geometry: []Geometry{g}}
	empty := FrameReply{}

	if _, err := dec.Decode(enc.AppendFrame(nil, full, frameRows(full, q, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(enc.AppendFrame(nil, empty, nil)); err != nil {
		t.Fatal(err)
	}
	// Rake 1 returns with new content: must inline, and decode fine.
	buf := enc.AppendFrame(nil, full, frameRows(full, q, 2))
	if enc.LastInline != 1 {
		t.Fatalf("re-added rake not inlined (inline=%d ref=%d)", enc.LastInline, enc.LastRef)
	}
	if _, err := dec.Decode(buf); err != nil {
		t.Fatal(err)
	}
}

// TestFrameV2MetaRoundTrip: header fields (time, counters, users,
// rakes) survive the v2 encoding exactly.
func TestFrameV2MetaRoundTrip(t *testing.T) {
	q := Quantizer{Max: vmath.V3(1, 1, 1)}
	r := FrameReply{
		Time:         TimeStatus{Current: 1.5, Speed: -2, Playing: true, Loop: true, NumSteps: 77},
		ComputeNanos: 123, LoadNanos: 456, Round: 99, Degraded: 3,
		Users: []UserState{{ID: 12, Head: vmath.Identity(), Hand: vmath.V3(1, 2, 3), Gesture: 2}},
		Rakes: []RakeState{{ID: 4, P0: vmath.V3(0, 0.5, 0), P1: vmath.V3(1, 1, 1),
			NumSeeds: 9, Tool: 1, Holder: 12, Grab: 2}},
	}
	enc := NewFrameEncoder()
	dec := NewFrameDecoder(q)
	got, err := dec.Decode(enc.AppendFrame(nil, r, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != r.Time || got.ComputeNanos != r.ComputeNanos ||
		got.LoadNanos != r.LoadNanos || got.Round != r.Round || got.Degraded != r.Degraded {
		t.Errorf("meta mismatch: %+v", got)
	}
	if len(got.Users) != 1 || got.Users[0] != r.Users[0] {
		t.Errorf("users mismatch: %+v", got.Users)
	}
	if len(got.Rakes) != 1 || got.Rakes[0] != r.Rakes[0] {
		t.Errorf("rakes mismatch: %+v", got.Rakes)
	}
}

// TestFrameV2CachedSegmentsMatchFresh: a frame assembled from cached
// segments decodes to exactly what quantizing its geometry afresh gives,
// and its bytes do not depend on the rows' keys — AppendFrame keys each
// entry from the frame itself.
func TestFrameV2CachedSegmentsMatchFresh(t *testing.T) {
	q := Quantizer{Max: vmath.V3(4, 4, 4)}
	rng := rand.New(rand.NewSource(11))
	r := FrameReply{Geometry: []Geometry{
		randGeometry(rng, 1, q), randGeometry(rng, 2, q),
	}}
	segs := []Segment{
		{Seq: 5, Bytes: AppendGeomV2(nil, r.Geometry[0], q)},
		{Seq: 6, Bytes: AppendGeomV2(nil, r.Geometry[1], q)},
	}
	keyed := NewFrameEncoder().AppendFrame(nil, r, frameRows(r, q, 5, 6))
	cached := NewFrameEncoder().AppendFrame(nil, r, segs)
	if !bytes.Equal(keyed, cached) {
		t.Error("the rows' keys changed the frame's bytes")
	}
	got, err := NewFrameDecoder(q).Decode(cached)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Geometry {
		if !geometriesEqual(got.Geometry[i], quantReference(r.Geometry[i], q)) {
			t.Errorf("rake %d does not decode to its fresh quantization", r.Geometry[i].Rake)
		}
	}
}

// TestDecodeFrameV2HostileCounts mirrors the DecodePoints guard: a
// tiny frame claiming huge line/point counts must fail fast without
// allocating.
func TestDecodeFrameV2HostileCounts(t *testing.T) {
	q := Quantizer{Max: vmath.V3(1, 1, 1)}
	// Hand-build: header + 1 geometry, inline, claiming 2^40 points.
	e := encoder{}
	e.u8(CodecV2)
	e.f32(0)
	e.f32(0)
	e.bool(false)
	e.bool(false)
	e.u32(0)
	e.i64(0)
	e.i64(0)
	e.u64(0)
	e.u8(0)
	e.u32(0) // users
	e.u32(0) // rakes
	e.uvarint(1)
	e.uvarint(1) // rake id
	e.u8(geomInline)
	e.uvarint(1) // seq
	seg := encoder{}
	seg.u8(0)
	seg.uvarint(1)       // one line
	seg.uvarint(1 << 40) // claiming a trillion points
	e.uvarint(uint64(len(seg.buf)))
	e.buf = append(e.buf, seg.buf...)
	if _, err := NewFrameDecoder(q).Decode(e.buf); err == nil {
		t.Fatal("hostile point count decoded silently")
	}
}

// aliasFrame hand-builds the frame a hostile peer would send to make
// one shadow serve both sections: a rake directory entry whose key is
// 0xFFFFFFFF — rake id -1, the relay directory's key for tool kind 1 —
// inlined at seq 7, then a tool section referencing kind 1 at seq 7.
func aliasFrame() []byte {
	e := encoder{}
	e.u8(CodecV2)
	e.f32(0)
	e.f32(0)
	e.bool(false)
	e.bool(false)
	e.u32(0)
	e.i64(0)
	e.i64(0)
	e.u64(0)
	e.u8(0)
	e.uvarint(0) // users
	e.uvarint(0) // rakes
	e.uvarint(1) // one geometry entry
	e.uvarint(0xFFFFFFFF)
	e.u8(geomInline)
	e.uvarint(7)
	e.segment([]byte{ToolKindIso, 0}) // decodes as either section's segment
	for i := 0; i < 3; i++ {
		e.toolState(ToolState{})
	}
	e.uvarint(1) // one tool geometry entry
	e.u8(ToolKindIso)
	e.u8(geomRef)
	e.uvarint(7)
	return e.buf
}

// TestDecodeToolRefCannotAliasRake: the decoder takes any int32 rake
// id off the wire, negatives included, and holds both sections in one
// shadow — so the shadow key must carry the section. A rake entry
// never satisfies a tool reference, whatever its id.
func TestDecodeToolRefCannotAliasRake(t *testing.T) {
	_, err := NewFrameDecoder(Quantizer{Max: vmath.V3(1, 1, 1)}).Decode(aliasFrame())
	if err == nil || !strings.Contains(err.Error(), "unknown tool geometry") {
		t.Fatalf("tool reference against a rake-section entry: err = %v, want unknown tool geometry", err)
	}
}

// TestAppendGeomV2Layout pins the segment byte layout so the format
// cannot drift silently: tool, varint counts, little-endian u16
// triples.
func TestAppendGeomV2Layout(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	g := Geometry{Rake: 1, Tool: 2, Lines: [][]vmath.Vec3{{vmath.V3(0, 5, 10)}}}
	seg := AppendGeomV2(nil, g, q)
	want := []byte{2, 1, 1}
	want = binary.LittleEndian.AppendUint16(want, 0)
	want = binary.LittleEndian.AppendUint16(want, 32768)
	want = binary.LittleEndian.AppendUint16(want, 65535)
	if !bytes.Equal(seg, want) {
		t.Errorf("segment = %x, want %x", seg, want)
	}
}

// frameRows builds r's AppendFrame rows — its rakes, then its tools —
// each encoded with q under the given sequence number, as the server's
// segment cache holds them.
func frameRows(r FrameReply, q Quantizer, seqs ...uint64) []Segment {
	rows := make([]Segment, 0, len(seqs))
	for i, g := range r.Geometry {
		rows = append(rows, Segment{Key: g.Rake, Seq: seqs[i], Bytes: AppendGeomV2(nil, g, q)})
	}
	if r.Tools != nil {
		for i, g := range r.Tools.Geoms {
			rows = append(rows, Segment{Key: -int32(g.Tool), Seq: seqs[len(r.Geometry)+i], Bytes: AppendToolGeomV2(nil, g, q)})
		}
	}
	return rows
}
