package wire

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vmath"
)

func TestPointEncodingIs12Bytes(t *testing.T) {
	// Table 1 rests on exactly 12 bytes/point.
	pts := []vmath.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}}
	buf := encodePoints(nil, pts)
	if len(buf) != 2*PointBytes {
		t.Fatalf("encoded %d points in %d bytes, want %d", len(pts), len(buf), 2*PointBytes)
	}
	back, err := DecodePoints(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if back[i] != pts[i] {
			t.Errorf("point %d = %v, want %v", i, back[i], pts[i])
		}
	}
}

func TestDecodePointsRejectsHostileCount(t *testing.T) {
	// A length prefix must be validated against the actual buffer: a
	// tiny message claiming 2^30 points must not allocate 12 GB.
	buf := encodePoints(nil, []vmath.Vec3{{X: 1}})
	if _, err := DecodePoints(buf, 1<<30); err == nil {
		t.Error("hostile point count accepted")
	}
	if _, err := DecodePoints(buf, -1); err == nil {
		t.Error("negative point count accepted")
	}
	if _, err := DecodePoints(buf, 2); err == nil {
		t.Error("count beyond buffer accepted")
	}
}

func TestTable1Arithmetic(t *testing.T) {
	// The paper's Table 1 rows: particles -> bytes at 12 B/point.
	cases := []struct {
		particles int
		bytes     int
	}{
		{10000, 120000},
		{50000, 600000},
		{100000, 1200000},
	}
	for _, c := range cases {
		if got := c.particles * PointBytes; got != c.bytes {
			t.Errorf("%d particles -> %d bytes, want %d", c.particles, got, c.bytes)
		}
	}
}

func randomUpdate(rng *rand.Rand) ClientUpdate {
	u := ClientUpdate{
		Head:    vmath.Translate(rng.Float32(), rng.Float32(), rng.Float32()),
		Hand:    vmath.V3(rng.Float32(), rng.Float32(), rng.Float32()),
		Gesture: uint8(rng.Intn(4)),
	}
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		u.Commands = append(u.Commands, Command{
			Kind:     CmdKind(1 + rng.Intn(10)),
			Rake:     int32(rng.Intn(100)),
			Grab:     uint8(rng.Intn(4)),
			Tool:     uint8(rng.Intn(3)),
			NumSeeds: uint32(rng.Intn(50)),
			Flag:     uint8(rng.Intn(2)),
			Value:    rng.Float32() * 10,
			P0:       vmath.V3(rng.Float32(), rng.Float32(), rng.Float32()),
			P1:       vmath.V3(rng.Float32(), rng.Float32(), rng.Float32()),
			Pos:      vmath.V3(rng.Float32(), rng.Float32(), rng.Float32()),
		})
	}
	return u
}

func updatesEqual(a, b ClientUpdate) bool {
	if a.Head != b.Head || a.Hand != b.Hand || a.Gesture != b.Gesture {
		return false
	}
	if len(a.Commands) != len(b.Commands) {
		return false
	}
	for i := range a.Commands {
		if a.Commands[i] != b.Commands[i] {
			return false
		}
	}
	return true
}

func TestClientUpdateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		u := randomUpdate(rng)
		got, err := DecodeClientUpdate(EncodeClientUpdate(u))
		if err != nil {
			t.Fatal(err)
		}
		if !updatesEqual(u, got) {
			t.Fatalf("iter %d: round trip mismatch\n%+v\n%+v", i, u, got)
		}
	}
}

func randomReply(rng *rand.Rand) FrameReply {
	r := FrameReply{
		Time: TimeStatus{
			Current:  rng.Float32() * 100,
			Speed:    rng.Float32()*4 - 2,
			Playing:  rng.Intn(2) == 1,
			Loop:     rng.Intn(2) == 1,
			NumSteps: uint32(rng.Intn(800)),
		},
		ComputeNanos: rng.Int63(),
		LoadNanos:    rng.Int63(),
		Round:        rng.Uint64(),
		Degraded:     uint8(rng.Intn(256)),
	}
	for i := 0; i < rng.Intn(3); i++ {
		r.Users = append(r.Users, UserState{
			ID:      rng.Int63n(100),
			Head:    vmath.RotateX(rng.Float32()),
			Hand:    vmath.V3(rng.Float32(), rng.Float32(), rng.Float32()),
			Gesture: uint8(rng.Intn(4)),
		})
	}
	for i := 0; i < rng.Intn(3); i++ {
		r.Rakes = append(r.Rakes, RakeState{
			ID:       int32(i + 1),
			P0:       vmath.V3(rng.Float32(), 0, 0),
			P1:       vmath.V3(0, rng.Float32(), 0),
			NumSeeds: uint32(1 + rng.Intn(20)),
			Tool:     uint8(rng.Intn(3)),
			Holder:   rng.Int63n(3),
			Grab:     uint8(rng.Intn(4)),
		})
	}
	for i := 0; i < rng.Intn(3); i++ {
		g := Geometry{Rake: int32(i + 1), Tool: uint8(rng.Intn(3))}
		for l := 0; l < rng.Intn(4); l++ {
			var line []vmath.Vec3
			for p := 0; p < rng.Intn(20); p++ {
				line = append(line, vmath.V3(rng.Float32(), rng.Float32(), rng.Float32()))
			}
			g.Lines = append(g.Lines, line)
		}
		r.Geometry = append(r.Geometry, g)
	}
	return r
}

func repliesEqual(a, b FrameReply) bool {
	if a.Time != b.Time || a.ComputeNanos != b.ComputeNanos || a.LoadNanos != b.LoadNanos ||
		a.Round != b.Round || a.Degraded != b.Degraded {
		return false
	}
	if len(a.Users) != len(b.Users) || len(a.Rakes) != len(b.Rakes) || len(a.Geometry) != len(b.Geometry) {
		return false
	}
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			return false
		}
	}
	for i := range a.Rakes {
		if a.Rakes[i] != b.Rakes[i] {
			return false
		}
	}
	for i := range a.Geometry {
		ga, gb := a.Geometry[i], b.Geometry[i]
		if ga.Rake != gb.Rake || ga.Tool != gb.Tool || len(ga.Lines) != len(gb.Lines) {
			return false
		}
		for l := range ga.Lines {
			if len(ga.Lines[l]) != len(gb.Lines[l]) {
				return false
			}
			for p := range ga.Lines[l] {
				if ga.Lines[l][p] != gb.Lines[l][p] {
					return false
				}
			}
		}
	}
	return true
}

func TestFrameReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		r := randomReply(rng)
		got, err := DecodeFrameReply(EncodeFrameReply(r))
		if err != nil {
			t.Fatal(err)
		}
		if !repliesEqual(r, got) {
			t.Fatalf("iter %d: round trip mismatch", i)
		}
	}
}

func TestFrameReplySizeDominatedByPoints(t *testing.T) {
	// The paper argues rake/user state overhead is "typically minor
	// compared to the visualization data itself". Check: a 10,000
	// point reply is within 1% of 120,000 bytes + fixed overhead.
	line := make([]vmath.Vec3, 10000)
	r := FrameReply{
		Time:     TimeStatus{NumSteps: 800},
		Rakes:    []RakeState{{ID: 1, NumSeeds: 50}},
		Geometry: []Geometry{{Rake: 1, Lines: [][]vmath.Vec3{line}}},
	}
	buf := EncodeFrameReply(r)
	pointBytes := 10000 * PointBytes
	overhead := len(buf) - pointBytes
	if overhead > pointBytes/100 {
		t.Errorf("overhead %d bytes exceeds 1%% of %d point bytes", overhead, pointBytes)
	}
	if r.TotalPoints() != 10000 {
		t.Errorf("TotalPoints = %d", r.TotalPoints())
	}
}

func TestDatasetInfoRoundTrip(t *testing.T) {
	i := DatasetInfo{
		NI: 64, NJ: 64, NK: 32, NumSteps: 800, DT: 0.05,
		BoundsMin: vmath.V3(-12, -12, 0), BoundsMax: vmath.V3(12, 12, 16),
	}
	got, err := decodeDatasetInfo(encodeDatasetInfo(i))
	if err != nil {
		t.Fatal(err)
	}
	if got != i {
		t.Errorf("round trip %+v != %+v", got, i)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := randomUpdate(rng)
	u.Commands = append(u.Commands, Command{Kind: CmdGrab})
	buf := EncodeClientUpdate(u)
	for _, cut := range []int{1, len(buf) / 2, len(buf) - 1} {
		if _, err := DecodeClientUpdate(buf[:cut]); err == nil {
			t.Errorf("truncated at %d accepted", cut)
		}
	}
	r := randomReply(rng)
	r.Geometry = append(r.Geometry, Geometry{Lines: [][]vmath.Vec3{make([]vmath.Vec3, 5)}})
	rbuf := EncodeFrameReply(r)
	if _, err := DecodeFrameReply(rbuf[:len(rbuf)-3]); err == nil {
		t.Error("truncated reply accepted")
	}
}

func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	// Header with a users count of 2^32-1 must be rejected before any
	// allocation attempt.
	var e encoder
	e.f32(0)
	e.f32(0)
	e.bool(false)
	e.bool(false)
	e.u32(1)
	e.i64(0)
	e.i64(0)
	e.u32(0xFFFFFFFF)
	if _, err := DecodeFrameReply(e.buf); err == nil {
		t.Error("absurd user count accepted")
	}
}

func TestPointsRoundTripProperty(t *testing.T) {
	f := func(xs []float32) bool {
		pts := make([]vmath.Vec3, 0, len(xs)/3)
		for i := 0; i+2 < len(xs); i += 3 {
			pts = append(pts, vmath.V3(xs[i], xs[i+1], xs[i+2]))
		}
		buf := encodePoints(nil, pts)
		if len(buf) != len(pts)*PointBytes {
			return false
		}
		back, err := DecodePoints(buf, len(pts))
		if err != nil {
			return false
		}
		for i := range pts {
			// NaN != NaN; compare bit patterns via re-encode.
			a := encodePoints(nil, pts[i:i+1])
			b := encodePoints(nil, back[i:i+1])
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeFrameReply10k(b *testing.B) {
	line := make([]vmath.Vec3, 200)
	geo := Geometry{Rake: 1}
	for i := 0; i < 50; i++ { // 50 x 200 = 10,000 points
		geo.Lines = append(geo.Lines, line)
	}
	r := FrameReply{Geometry: []Geometry{geo}}
	b.SetBytes(int64(r.TotalPoints() * PointBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := EncodeFrameReply(r)
		if len(buf) < 120000 {
			b.Fatal("short encode")
		}
	}
}

func TestDecodeRejectsUndersizedPayloadClaims(t *testing.T) {
	// A tiny message claiming a huge point count must fail before any
	// large allocation: the count is bounded by the remaining bytes.
	var e encoder
	e.f32(0) // time fields
	e.f32(0)
	e.bool(false)
	e.bool(false)
	e.u32(1)
	e.i64(0)
	e.i64(0)
	e.u32(0)       // users
	e.u32(0)       // rakes
	e.u32(1)       // one geometry
	e.i32(1)       // rake id
	e.u8(0)        // tool
	e.u32(1)       // one line
	e.u32(7000000) // claims 7M points with no bytes behind it
	if _, err := DecodeFrameReply(e.buf); err == nil {
		t.Error("undersized point claim accepted")
	}
}

// DecodePoints parses n points from buf. n is validated against the
// buffer before allocating, so a hostile count cannot force a huge
// allocation backed by a tiny message.
func DecodePoints(buf []byte, n int) ([]vmath.Vec3, error) {
	if n < 0 || n > len(buf)/PointBytes {
		return nil, fmt.Errorf("wire: point count %d exceeds %d-byte buffer", n, len(buf))
	}
	out := make([]vmath.Vec3, n)
	readPoints(out, buf)
	return out, nil
}
