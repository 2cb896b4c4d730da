package store

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// ringGrid builds the small grid every ring test shares.
func ringGrid(t testing.TB) *grid.Grid {
	t.Helper()
	g, err := grid.NewCartesian(8, 8, 4, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(7, 7, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// clamp and pin run the ring's unexported clamp and pin under its
// lock, as Follow does; pin returns where the pin landed.
func clamp(r *Ring, step int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clampLocked(step)
}

func pin(r *Ring, t int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pinLocked(t)
	return r.pinned
}

// stepField builds a source field whose U is constant t, so resident
// steps are verifiable after recycling.
func stepField(g *grid.Grid, t int) *field.Field {
	f := field.NewField(g.NI, g.NJ, g.NK, field.GridCoords)
	for i := range f.U {
		f.U[i] = float32(t)
	}
	return f
}

func TestRingPublishAndWindow(t *testing.T) {
	g := ringGrid(t)
	r, err := NewRing(g, 0.1, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSteps() != 10 || r.DT() != 0.1 || r.Grid() != g {
		t.Fatalf("metadata: steps=%d dt=%v", r.NumSteps(), r.DT())
	}
	if r.Head() != -1 {
		t.Fatalf("head before first publish = %d, want -1", r.Head())
	}
	for i := 0; i < 5; i++ {
		step, err := r.Publish(stepField(g, i))
		if err != nil {
			t.Fatal(err)
		}
		if step != i {
			t.Fatalf("publish %d sealed as step %d", i, step)
		}
	}
	// Window 3, head 4: steps 2..4 resident, 0..1 recycled.
	if r.Head() != 4 || r.Tail() != 2 {
		t.Fatalf("window = [%d, %d], want [2, 4]", r.Tail(), r.Head())
	}
	for i := 2; i <= 4; i++ {
		f, err := r.LoadStep(i)
		if err != nil {
			t.Fatalf("resident step %d: %v", i, err)
		}
		if f.U[0] != float32(i) {
			t.Fatalf("step %d payload U[0] = %v", i, f.U[0])
		}
	}
	if _, err := r.LoadStep(1); err == nil || !strings.Contains(err.Error(), "recycled") {
		t.Fatalf("recycled step load: %v, want recycled error", err)
	}
	if _, err := r.LoadStep(7); err == nil {
		t.Fatal("unproduced step load without a producer succeeded")
	}
	if _, err := r.LoadStep(-1); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := r.LoadStep(10); err == nil {
		t.Fatal("step past the horizon accepted")
	}
	// Eviction happens inside Publish, so the first recycle shows up
	// one publish after the first eviction: by head 4, one buffer has
	// come back around.
	st := r.Stats()
	if st.Produced != 5 || st.Recycled != 1 {
		t.Fatalf("stats = %+v, want Produced 5 Recycled 1", st)
	}
}

func TestRingOnDemandProduction(t *testing.T) {
	g := ringGrid(t)
	r, err := NewRing(g, 0.1, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	r.SetProducer(func(upto int) error {
		for r.Head() < upto {
			if _, err := r.Publish(stepField(g, r.Head()+1)); err != nil {
				return err
			}
			produced++
		}
		return nil
	})
	f, err := r.LoadStep(6)
	if err != nil {
		t.Fatal(err)
	}
	if f.U[0] != 6 || produced != 7 {
		t.Fatalf("U[0]=%v produced=%d, want 6 and 7", f.U[0], produced)
	}
	// Already-resident steps must not re-drive the producer.
	if _, err := r.LoadStep(5); err != nil {
		t.Fatal(err)
	}
	if produced != 7 {
		t.Fatalf("resident load produced %d extra steps", produced-7)
	}
}

func TestRingClamp(t *testing.T) {
	g := ringGrid(t)
	r, err := NewRing(g, 0.1, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := r.Publish(stepField(g, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Window is [3, 5]. Below the tail clamps up; with no producer,
	// above the head clamps down; the horizon always bounds.
	if got := clamp(r, 1); got != 3 {
		t.Fatalf("Clamp(1) = %d, want 3", got)
	}
	if got := clamp(r, 8); got != 5 {
		t.Fatalf("Clamp(8) = %d, want 5", got)
	}
	if got := clamp(r, 4); got != 4 {
		t.Fatalf("Clamp(4) = %d, want 4", got)
	}
	if got := r.Stats().Clamped; got != 2 {
		t.Fatalf("Clamped = %d, want 2", got)
	}
	// With a producer attached, future steps are reachable — only the
	// horizon clamps from above.
	r.SetProducer(func(int) error { return nil })
	if got := clamp(r, 8); got != 8 {
		t.Fatalf("Clamp(8) with producer = %d, want 8", got)
	}
	if got := clamp(r, 99); got != 9 {
		t.Fatalf("Clamp(99) = %d, want horizon-1 = 9", got)
	}
}

// TestRingPinBlocksRecycle is the eviction-while-integrating
// regression test: a step pinned by an in-flight tracer must survive
// publishes that would otherwise evict it, its buffer must not be
// recycled into a new step, and dropping the pin must free it again.
func TestRingPinBlocksRecycle(t *testing.T) {
	g := ringGrid(t)
	r, err := NewRing(g, 0.1, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Publish(stepField(g, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Window 2, head 2: steps 1..2 resident. Pin 1 (the tracer's
	// first level), then produce far past the window. A recycled step
	// cannot be held: pinning it lands on the tail.
	if got := pin(r, 1); got != 1 {
		t.Fatalf("pinning resident step 1 landed on %d", got)
	}
	if got := pin(r, 0); got != 1 {
		t.Fatalf("pinning recycled step 0 landed on %d, want the tail 1", got)
	}
	pinned, err := r.LoadStep(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 10; i++ {
		if _, err := r.Publish(stepField(g, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The pin held the tail: steps 1..9 all resident, nothing between
	// the pin and the head was reclaimed.
	if r.Tail() != 1 {
		t.Fatalf("tail = %d with step 1 pinned, want 1", r.Tail())
	}
	for i := 1; i < 10; i++ {
		f, err := r.LoadStep(i)
		if err != nil {
			t.Fatalf("step %d evicted despite pin barrier: %v", i, err)
		}
		if f.U[0] != float32(i) {
			t.Fatalf("step %d payload overwritten: U[0] = %v", i, f.U[0])
		}
	}
	// The pinned buffer itself is bit-intact.
	if pinned.U[0] != 1 {
		t.Fatalf("pinned step overwritten: U[0] = %v", pinned.U[0])
	}
	if d := r.Stats().Deferred; d == 0 {
		t.Fatal("deferred-eviction counter never moved")
	}

	// Moving the pin up releases step 1: the next publish slides the
	// tail and recycles — and the reclaimed buffer is reused for a later
	// step (pointer identity proves the recycle path ran).
	pin(r, 9)
	if _, err := r.Publish(stepField(g, 10)); err != nil {
		t.Fatal(err)
	}
	if r.Tail() != 9 {
		t.Fatalf("tail after unpin+publish = %d, want 9", r.Tail())
	}
	before := r.Stats().Recycled
	step, err := r.Publish(stepField(g, 11))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.LoadStep(step)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Recycled <= before {
		t.Fatal("publish after unpin did not recycle a freed buffer")
	}
	if f == pinned && f.U[0] != 11 {
		t.Fatalf("recycled buffer holds stale data: U[0] = %v", f.U[0])
	}
}

// TestRingPinUnderConcurrentProduction hammers the pin/publish race
// directly: a producer goroutine publishes while a consumer moves the
// pin to the head, reads, and verifies its step. Run with -race this
// is the eviction-while-integrating audit in miniature.
func TestRingPinUnderConcurrentProduction(t *testing.T) {
	g := ringGrid(t)
	r, err := NewRing(g, 0.1, 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(stepField(g, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < 512; i++ {
			if _, err := r.Publish(stepField(g, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reads := 0
	for i := 0; i < 2000; i++ {
		head := r.Head()
		if head < 0 {
			continue
		}
		if pin(r, head) != head {
			continue // already evicted between Head and pin; try again
		}
		f, err := r.LoadStep(head)
		if err == nil {
			if f.U[0] != float32(head) {
				t.Fatalf("pinned step %d overwritten mid-read: U[0] = %v", head, f.U[0])
			}
			reads++
		}
	}
	wg.Wait()
	if reads == 0 {
		t.Fatal("consumer never completed a pinned read")
	}
}

func TestRingValidation(t *testing.T) {
	g := ringGrid(t)
	if _, err := NewRing(nil, 0.1, 2, 4); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := NewRing(g, 0, 2, 4); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := NewRing(g, 0.1, 0, 4); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewRing(g, 0.1, 2, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	r, err := NewRing(g, 0.1, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Publish(stepField(g, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Publish(stepField(g, 4)); err == nil {
		t.Error("publish past the horizon accepted")
	}
	wrong := field.NewField(2, 2, 2, field.GridCoords)
	r2, _ := NewRing(g, 0.1, 2, 4)
	if _, err := r2.Publish(wrong); err == nil {
		t.Error("mismatched field dims accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStep(1); err == nil {
		t.Error("load after close succeeded")
	}
}
