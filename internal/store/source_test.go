package store

import (
	"testing"

	"repro/internal/field"
)

// TestSourceContract holds every Source to Follow's contract over one
// play at speed 1.5, so every other round's paths start a level below
// the served step. Follow returns the step it serves, and every level
// from the play's first to that step stays loadable and unrecycled
// until the next Follow, whatever the round reads meanwhile: a step far
// ahead (for a one-step cache, evictions; for a window-2 ring, a
// producer publishing past the window). The first rounds have no reach
// yet, as a round that adds the scene's first particle-path rake does.
func TestSourceContract(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name string
		src  func(t *testing.T) Source
	}{
		{"memory", func(t *testing.T) Source { return NewMemory(makeDataset(t, n)) }},
		{"cache", func(t *testing.T) Source {
			c, err := NewCache(NewMemory(makeDataset(t, n)), CacheOptions{MaxSteps: 1})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"cache with prefetcher", func(t *testing.T) Source {
			c, err := NewCache(NewMemory(makeDataset(t, n)), CacheOptions{MaxSteps: 1, Prefetch: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Wait)
			return c
		}},
		{"ring", func(t *testing.T) Source {
			g := ringGrid(t)
			r, err := NewRing(g, 0.1, 2, n)
			if err != nil {
				t.Fatal(err)
			}
			r.SetProducer(func(upto int) error {
				for r.Head() < upto {
					if _, err := r.Publish(stepField(g, r.Head()+1)); err != nil {
						return err
					}
				}
				return nil
			})
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src(t)
			for i, now := range []float32{0, 1.5, 3, 4.5, 6, 7.5, 9} {
				p := Play{Step: int(now + 0.5), First: int(now)}
				if i >= 2 {
					p.Reach = 3
				}
				served := src.Follow(p)
				if served != p.Step {
					t.Fatalf("%+v: Follow serves %d", p, served)
				}
				held := map[int]*field.Field{}
				for l := p.First; l <= served; l++ {
					held[l] = mustLoad(t, src, l)
					checkStep(t, held[l], float32(l))
				}
				mustLoad(t, src, served+5)
				for l, f := range held {
					if f.U[0] != float32(l) {
						t.Fatalf("%+v: level %d was recycled into step %v", p, l, f.U[0])
					}
					checkStep(t, mustLoad(t, src, l), float32(l))
				}
			}
		})
	}
}
