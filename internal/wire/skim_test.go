package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vmath"
)

// SkimFrameReply and DecodeFrameReply are one walk (decodeFrameReply):
// these tests hold the skim to "the full decode with the points
// dropped" on the golden corpus, on seeded random frames and on every
// damaged form of one, and pin what moving points as bytes must keep —
// every float's bits, lines that do not share growing room, and no more
// point memory than the message is long.

// awkwardBits are the float32 patterns a per-value conversion could
// disturb and a copy cannot: quiet and signalling NaNs with payloads,
// both zeros, the smallest and largest denormals, the infinities.
var awkwardBits = []uint32{
	0x7fc00001, 0x7f800001, 0xffc12345, 0xff800001,
	0x00000000, 0x80000000,
	0x00000001, 0x807fffff,
	0x7f800000, 0xff800000, 0x7f7fffff,
}

func awkwardFloat(rng *rand.Rand) float32 {
	if rng.Intn(3) == 0 {
		return math.Float32frombits(awkwardBits[rng.Intn(len(awkwardBits))])
	}
	return rng.Float32()*20 - 10
}

func awkwardPoints(rng *rand.Rand, n int) []vmath.Vec3 {
	pts := make([]vmath.Vec3, n)
	for i := range pts {
		pts[i] = vmath.V3(awkwardFloat(rng), awkwardFloat(rng), awkwardFloat(rng))
	}
	return pts
}

// awkwardReply is randomReply with the shapes the line arena must get
// right — geometries of 0, 1 and many lines, empty lines between full
// ones, a tool section or none — over awkward floats.
func awkwardReply(rng *rand.Rand) FrameReply {
	r := randomReply(rng)
	r.Geometry = r.Geometry[:0]
	for i, nLines := range []int{0, 1, 2 + rng.Intn(40)}[rng.Intn(3):] {
		g := Geometry{Rake: int32(i + 1), Tool: uint8(rng.Intn(3))}
		for l := 0; l < nLines; l++ {
			n := rng.Intn(30)
			if rng.Intn(4) == 0 {
				n = 0
			}
			g.Lines = append(g.Lines, awkwardPoints(rng, n))
		}
		r.Geometry = append(r.Geometry, g)
	}
	if rng.Intn(2) == 0 {
		r.Tools = &ToolsReply{
			Iso:   ToolState{Enabled: true, Value: awkwardFloat(rng), Holder: rng.Int63n(4)},
			Plane: ToolState{Enabled: rng.Intn(2) == 0, Axis: uint8(rng.Intn(3)), Value: 0.5},
		}
		for kind := uint8(ToolKindIso); kind <= ToolKindVortex; kind++ {
			if rng.Intn(3) > 0 {
				r.Tools.Geoms = append(r.Tools.Geoms, ToolGeom{Tool: kind, Points: awkwardPoints(rng, 3*rng.Intn(12))})
			}
		}
	}
	return r
}

// dropPoints is what a skim of r's encoding must return.
func dropPoints(r FrameReply) FrameReply {
	r.Geometry = append([]Geometry(nil), r.Geometry...)
	for i := range r.Geometry {
		r.Geometry[i].Lines = nil
	}
	if r.Tools != nil {
		t := *r.Tools
		t.Geoms = append([]ToolGeom(nil), t.Geoms...)
		for i := range t.Geoms {
			t.Geoms[i].Points = nil
		}
		r.Tools = &t
	}
	return r
}

// checkSkimAgrees decodes buf both ways. The two must fail together;
// when they succeed the skim holds no points and is otherwise the full
// decode — compared through the encoder, so NaNs in the header compare
// by their bits. It returns the full decode.
func checkSkimAgrees(t testing.TB, buf []byte) (FrameReply, error) {
	t.Helper()
	full, fullErr := DecodeFrameReply(buf)
	skim, skimErr := SkimFrameReply(buf)
	if (fullErr == nil) != (skimErr == nil) {
		t.Fatalf("%d-byte frame: full decode err = %v, skim err = %v", len(buf), fullErr, skimErr)
	}
	if fullErr != nil {
		return FrameReply{}, fullErr
	}
	for _, g := range skim.Geometry {
		if g.Lines != nil {
			t.Fatalf("skim kept %d lines of rake %d", len(g.Lines), g.Rake)
		}
	}
	if (skim.Tools == nil) != (full.Tools == nil) {
		t.Fatalf("tool section: full %v, skim %v", full.Tools != nil, skim.Tools != nil)
	}
	if skim.Tools != nil {
		for _, g := range skim.Tools.Geoms {
			if g.Points != nil {
				t.Fatalf("skim kept %d points of tool %d", len(g.Points), g.Tool)
			}
		}
	}
	if !bytes.Equal(EncodeFrameReply(skim), EncodeFrameReply(dropPoints(full))) {
		t.Fatalf("skim is not the full decode with its points dropped:\n skim %+v\n full %+v", skim, dropPoints(full))
	}
	return full, nil
}

func TestSkimEqualsDecodeOnGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "server", "testdata", "golden", "*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden corpus: %v", err)
	}
	var frames, points int
	for _, file := range files {
		if name := filepath.Base(file); strings.HasPrefix(name, "v2-") || name == "steer-keyframe.bin" {
			continue // the codec-v2 scenarios
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 { // u32 length-prefixed frames
			n := binary.LittleEndian.Uint32(data)
			frame := data[4 : 4+n]
			data = data[4+n:]
			full, err := checkSkimAgrees(t, frame)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if !bytes.Equal(EncodeFrameReply(full), frame) {
				t.Fatalf("%s: a frame does not re-encode to its own bytes", file)
			}
			frames++
			points += full.TotalPoints()
		}
	}
	if frames < 20 || points == 0 {
		t.Fatalf("corpus gave %d v1 frames, %d points", frames, points)
	}
}

func TestSkimEqualsDecodeOnRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		r := awkwardReply(rng)
		buf := EncodeFrameReply(r)
		full, err := checkSkimAgrees(t, buf)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		// Bits, not values: NaN payloads and the sign of zero survive.
		if !bytes.Equal(EncodeFrameReply(full), buf) {
			t.Fatalf("iter %d: decode then encode changed the bytes", i)
		}
		for g := range r.Geometry {
			if len(full.Geometry[g].Lines) != len(r.Geometry[g].Lines) {
				t.Fatalf("iter %d: rake %d decoded to %d lines, want %d", i, g, len(full.Geometry[g].Lines), len(r.Geometry[g].Lines))
			}
			for l, line := range full.Geometry[g].Lines {
				if line == nil || len(line) != len(r.Geometry[g].Lines[l]) {
					t.Fatalf("iter %d: line %d/%d = %v (len %d), want %d points, non-nil", i, g, l, line == nil, len(line), len(r.Geometry[g].Lines[l]))
				}
			}
		}
	}
}

// TestSkimErrsWhereDecodeErrs damages one frame every way a count or a
// length can be wrong — cut at every byte, every byte overwritten, a
// hostile u32 planted at every offset — and requires the two entry
// points to agree on each.
func TestSkimErrsWhereDecodeErrs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := awkwardReply(rng)
	for r.Tools == nil || len(r.Tools.Geoms) == 0 || len(r.Geometry) < 2 {
		r = awkwardReply(rng)
	}
	good := EncodeFrameReply(r)
	if _, err := checkSkimAgrees(t, good); err != nil {
		t.Fatal(err)
	}
	var failed int
	try := func(buf []byte) {
		if _, err := checkSkimAgrees(t, buf); err != nil {
			failed++
		}
	}
	for cut := 0; cut < len(good); cut++ {
		try(good[:cut])
	}
	// Every cut but the one between the geometry and the optional tool
	// section leaves a malformed frame.
	if failed != len(good)-1 {
		t.Errorf("%d of %d truncations refused", failed, len(good))
	}
	try(append(bytes.Clone(good), 0))
	for at := range good {
		for _, v := range []byte{0x00, 0x01, 0xff, good[at] + 1} {
			bad := bytes.Clone(good)
			bad[at] = v
			try(bad)
		}
		if at+4 <= len(good) {
			for _, v := range []uint32{0xffffffff, maxPoints, maxPoints + 1, maxEntities + 1} {
				bad := bytes.Clone(good)
				binary.LittleEndian.PutUint32(bad[at:], v)
				try(bad)
			}
		}
	}
}

func TestPointPathsAgreeBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 341, 4096} {
		pts := awkwardPoints(rng, n)
		prefix := []byte{0xaa, 0xbb, 0xcc} // odd length: the encoding lands unaligned
		bulk := EncodePoints(bytes.Clone(prefix), pts)
		portable := encodePointsPortable(bytes.Clone(prefix), pts)
		if !bytes.Equal(bulk, portable) || len(bulk) != len(prefix)+n*PointBytes {
			t.Fatalf("%d points: EncodePoints and the per-value path disagree", n)
		}
		// The per-value encoder writes each float's Float32bits, so equal
		// bytes out of it are equal bits in.
		a, b := make([]vmath.Vec3, n), make([]vmath.Vec3, n)
		readPoints(a, bulk[len(prefix):])
		readPointsPortable(b, bulk[len(prefix):])
		want := portable[len(prefix):]
		if !bytes.Equal(encodePointsPortable(nil, a), want) || !bytes.Equal(encodePointsPortable(nil, b), want) {
			t.Fatalf("%d points: readPoints and the per-value path do not both give back the bits encoded", n)
		}
	}
}

// TestDecodedLinesDoNotShareRoom: the lines of a frame are cut from one
// array, so each must come with no capacity beyond its length — append
// to one reallocates instead of writing over its neighbour.
func TestDecodedLinesDoNotShareRoom(t *testing.T) {
	line := func(x float32) []vmath.Vec3 { return []vmath.Vec3{vmath.V3(x, x, x), vmath.V3(x, x, x)} }
	r := FrameReply{
		Geometry: []Geometry{
			{Rake: 1, Lines: [][]vmath.Vec3{line(1), {}, line(2)}},
			{Rake: 2, Lines: [][]vmath.Vec3{line(3)}},
		},
		Tools: &ToolsReply{Geoms: []ToolGeom{
			{Tool: ToolKindIso, Points: line(4)}, {Tool: ToolKindPlane, Points: line(5)},
		}},
	}
	got, err := DecodeFrameReply(EncodeFrameReply(r))
	if err != nil {
		t.Fatal(err)
	}
	var all [][]vmath.Vec3
	for _, g := range got.Geometry {
		all = append(all, g.Lines...)
	}
	for _, g := range got.Tools.Geoms {
		all = append(all, g.Points)
	}
	for i, l := range all {
		if cap(l) != len(l) {
			t.Errorf("slice %d: len %d cap %d", i, len(l), cap(l))
		}
		_ = append(l, vmath.V3(-1, -1, -1))
	}
	back := EncodeFrameReply(got)
	if !bytes.Equal(back, EncodeFrameReply(r)) {
		t.Error("appending to decoded lines changed their neighbours")
	}
}

// allocatedBy reports how many bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameHeader is an encoded frame up to and including the geometry
// count: no users, no rakes, nGeom geometries to follow.
func frameHeader(nGeom uint32) *encoder {
	var e encoder
	e.f32(0)
	e.f32(0)
	e.bool(false)
	e.bool(false)
	e.u32(1)
	e.i64(0)
	e.i64(0)
	e.u64(1)
	e.u8(0)
	e.u32(0)
	e.u32(0)
	e.u32(nGeom)
	return &e
}

// TestHostilePointCountAllocatesNothing: a line announcing the largest
// point count the protocol allows with 40 bytes behind it is refused by
// the bytes that remain, and a frame whose first line is honest sizes
// its arena by those bytes, not by what a later line claims.
func TestHostilePointCountAllocatesNothing(t *testing.T) {
	e := frameHeader(1)
	e.i32(1)
	e.u8(0)
	e.u32(1)
	e.u32(maxPoints)
	e.buf = append(e.buf, make([]byte, 40)...)
	for name, decode := range map[string]func([]byte) (FrameReply, error){"decode": DecodeFrameReply, "skim": SkimFrameReply} {
		var err error
		grew := allocatedBy(func() { _, err = decode(e.buf) })
		if err == nil {
			t.Errorf("%s: 8M points in 40 bytes accepted", name)
		}
		if grew >= 1<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", name, grew)
		}
	}

	e = frameHeader(1)
	e.i32(1)
	e.u8(0)
	e.u32(2)
	e.u32(2)
	e.buf = append(e.buf, make([]byte, 2*PointBytes)...)
	e.u32(maxPoints - 2)
	e.buf = append(e.buf, make([]byte, 40)...)
	var err error
	grew := allocatedBy(func() { _, err = DecodeFrameReply(e.buf) })
	if err == nil || grew >= 1<<10 {
		t.Errorf("an honest line then a hostile one: err = %v, %d bytes allocated", err, grew)
	}
}
