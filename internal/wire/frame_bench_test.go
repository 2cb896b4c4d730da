package wire_test

import (
	"testing"

	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// BenchmarkFrameEncodeV2 times the codec-v2 frame encoder at the two
// ends of the Wire 2.0 cost spectrum on a ~12,800-point scene:
// "keyframe" resets the session shadow each op so every rake is
// inlined and quantized, "steady" keeps the shadow warm so every rake
// collapses to a reference record. wire.TestAppendFrameAllocs pins
// both at zero allocations.
func BenchmarkFrameEncodeV2(b *testing.B) {
	q := wire.Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(24, 32, 10)}
	const nRakes, nLines, nPts = 8, 16, 100
	reply := wire.FrameReply{
		Time:  wire.TimeStatus{Current: 3.5, Speed: 1, Playing: true, NumSteps: 10},
		Users: []wire.UserState{{ID: 1, Head: vmath.Identity(), Hand: vmath.V3(4, 5, 6)}},
		Round: 42,
	}
	segs := make([]wire.Segment, nRakes)
	for r := 0; r < nRakes; r++ {
		reply.Rakes = append(reply.Rakes, wire.RakeState{
			ID: int32(r + 1),
			P0: vmath.V3(1, float32(r)+1, 1), P1: vmath.V3(1, float32(r)+1, 9),
			NumSeeds: nLines, Tool: uint8(integrate.ToolStreamline),
		})
		g := wire.Geometry{Rake: int32(r + 1), Tool: uint8(integrate.ToolStreamline)}
		for l := 0; l < nLines; l++ {
			line := make([]vmath.Vec3, nPts)
			for p := range line {
				t := float32(p) / nPts
				line[p] = vmath.V3(1+22*t, float32(r)+1+0.4*float32(l)*t, 1+8*t*t)
			}
			g.Lines = append(g.Lines, line)
		}
		reply.Geometry = append(reply.Geometry, g)
		// Pre-encoded segments model the server's encode-once cache.
		segs[r] = wire.Segment{Key: g.Rake, Seq: uint64(r + 1), Bytes: wire.AppendGeomV2(nil, g, q)}
	}

	b.Run("keyframe", func(b *testing.B) {
		enc := wire.NewFrameEncoder(q)
		buf := enc.AppendFrame(nil, reply, segs)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			buf = enc.AppendFrame(buf[:0], reply, segs)
		}
		if enc.LastInline != nRakes {
			b.Fatalf("keyframe inlined %d of %d rakes", enc.LastInline, nRakes)
		}
	})

	b.Run("steady", func(b *testing.B) {
		enc := wire.NewFrameEncoder(q)
		buf := enc.AppendFrame(nil, reply, segs) // warm the shadow
		buf = enc.AppendFrame(buf[:0], reply, segs)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendFrame(buf[:0], reply, segs)
		}
		if enc.LastRef != nRakes {
			b.Fatalf("steady frame referenced %d of %d rakes", enc.LastRef, nRakes)
		}
	})
}
