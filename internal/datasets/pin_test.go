package datasets

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/field"
)

// datasetHash is FNV-64a over the little-endian Float32bits of U, then
// V, then W of every step, in step order.
func datasetHash(u *field.Unsteady) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, s := range u.Steps {
		for _, comp := range [][]float32{s.U, s.V, s.W} {
			for _, x := range comp {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// TestDatasetBitsPinned pins every bit the generators produce — the
// benchmark's two analytic datasets and a small solver run — at several
// worker counts, so parallel synthesis and in-place conversion can never
// change a field.
func TestDatasetBitsPinned(t *testing.T) {
	cases := []struct {
		name string
		big  bool
		gen  func() (*field.Unsteady, error)
		want uint64
	}{
		{"analytic-32x48x12x24", false, func() (*field.Unsteady, error) {
			return Analytic(Spec{NI: 32, NJ: 48, NK: 12, NumSteps: 24, DT: 0.6})
		}, 0x7b4df90bb631f64e},
		{"analytic-64x96x24x32", true, func() (*field.Unsteady, error) {
			return Analytic(Spec{NI: 64, NJ: 96, NK: 24, NumSteps: 32, DT: 0.6})
		}, 0xc6cd41c18fb34693},
		{"solver-10x12x5x3", false, func() (*field.Unsteady, error) {
			return Solver(Spec{NI: 10, NJ: 12, NK: 5, NumSteps: 3, DT: 0.4},
				SolverOptions{Resolution: 24, SpinupSteps: 10})
		}, 0xfdc6c694740cc679},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		if c.big && underRace {
			continue
		}
		for _, procs := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				u, err := c.gen()
				if err != nil {
					t.Fatal(err)
				}
				if got := datasetHash(u); got != c.want {
					t.Errorf("hash %016x, want %016x", got, c.want)
				}
			})
		}
	}
}
