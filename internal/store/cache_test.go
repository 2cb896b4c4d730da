package store

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/field"
)

// gatedStore wraps a Store, counting underlying loads and optionally
// blocking them until released, so tests can observe coalescing.
type gatedStore struct {
	Store
	loads atomic.Int64
	gate  chan struct{} // nil = never block
	enter chan int      // nil = don't announce
	fail  map[int]error
}

func (g *gatedStore) LoadStep(t int) (*field.Field, error) {
	g.loads.Add(1)
	if g.enter != nil {
		g.enter <- t
	}
	if g.gate != nil {
		<-g.gate
	}
	if err := g.fail[t]; err != nil {
		return nil, err
	}
	return g.Store.LoadStep(t)
}

func TestCacheHitsAndLRUEviction(t *testing.T) {
	src := &gatedStore{Store: NewMemory(makeDataset(t, 5))}
	c, err := NewCache(src, CacheOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	load := func(step int, want float32) {
		t.Helper()
		f, err := c.LoadStep(step)
		if err != nil {
			t.Fatal(err)
		}
		checkStep(t, f, want)
	}
	load(0, 0) // miss
	load(1, 1) // miss
	load(0, 0) // hit, 0 now most recent
	load(2, 2) // miss, evicts 1 (LRU)
	if c.Resident(1) {
		t.Error("step 1 survived eviction")
	}
	if !c.Resident(0) || !c.Resident(2) {
		t.Error("recently used steps evicted")
	}
	load(1, 1) // miss again
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ResidentSteps != 2 {
		t.Fatalf("resident = %d, want 2", s.ResidentSteps)
	}
	if got := src.loads.Load(); got != 4 {
		t.Fatalf("underlying loads = %d, want 4", got)
	}
	if want := 1.0 / 5.0; s.HitRate() != want {
		t.Fatalf("hit rate = %v, want %v", s.HitRate(), want)
	}
}

func TestCacheByteBudgetKeepsAtLeastOne(t *testing.T) {
	src := NewMemory(makeDataset(t, 3))
	stepBytes := mustLoad(t, src, 0).SizeBytes()
	// Budget below one step: the newest step must still stay resident.
	c, err := NewCache(src, CacheOptions{MaxBytes: stepBytes / 2})
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, c, 0)
	mustLoad(t, c, 0)
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.ResidentSteps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	mustLoad(t, c, 1) // evicts 0: over byte budget
	if c.Resident(0) || !c.Resident(1) {
		t.Fatalf("resident after byte eviction: 0=%v 1=%v", c.Resident(0), c.Resident(1))
	}
	if s := c.Stats(); s.Evictions != 1 || s.ResidentBytes != stepBytes {
		t.Fatalf("stats = %+v", s)
	}
	// A budget of two steps holds exactly two.
	c2, err := NewCache(src, CacheOptions{MaxBytes: 2 * stepBytes})
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, c2, 0)
	mustLoad(t, c2, 1)
	mustLoad(t, c2, 2)
	if s := c2.Stats(); s.ResidentSteps != 2 || s.Evictions != 1 {
		t.Fatalf("two-step budget stats = %+v", s)
	}
}

func mustLoad(t *testing.T, s Store, step int) *field.Field {
	t.Helper()
	f, err := s.LoadStep(step)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCacheSingleFlight(t *testing.T) {
	const waiters = 7
	src := &gatedStore{
		Store: NewMemory(makeDataset(t, 3)),
		gate:  make(chan struct{}),
		enter: make(chan int, 1),
	}
	c, err := NewCache(src, CacheOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*field.Field, waiters+1)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := c.LoadStep(1)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = f
		}()
	}
	launch(0)
	<-src.enter // the leader is inside the underlying load
	for i := 1; i <= waiters; i++ {
		launch(i)
	}
	// Wait until every follower has joined the in-flight load, then
	// release the read.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", c.Stats().Coalesced, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(src.gate)
	wg.Wait()
	if got := src.loads.Load(); got != 1 {
		t.Fatalf("underlying loads = %d, want 1 (single-flight)", got)
	}
	for i, f := range results {
		if f != results[0] {
			t.Fatalf("waiter %d got a different field pointer", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != waiters {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	boom := errors.New("disk on fire")
	src := &gatedStore{
		Store: NewMemory(makeDataset(t, 3)),
		fail:  map[int]error{1: boom},
	}
	c, err := NewCache(src, CacheOptions{MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadStep(1); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Resident(1) {
		t.Error("failed load became resident")
	}
	// The failure is not cached: a retry hits the source again, and
	// once the source recovers the step becomes resident.
	delete(src.fail, 1)
	mustLoad(t, c, 1)
	if !c.Resident(1) {
		t.Error("recovered load not resident")
	}
	if got := src.loads.Load(); got != 2 {
		t.Fatalf("underlying loads = %d, want 2", got)
	}
}

func TestCacheUnderPrefetcher(t *testing.T) {
	src := &gatedStore{Store: NewMemory(makeDataset(t, 4))}
	c, err := NewCache(src, CacheOptions{MaxSteps: 4, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Follow(Play{Step: 2})
	c.Wait()
	// The fill read the playhead's step and the next into the cache.
	if !c.Resident(2) || !c.Resident(3) {
		t.Error("prefetched steps did not fill the shared cache")
	}
	// A later load of the same step — the round's own, or another
	// session's playback position — is a cache hit, not a second read.
	checkStep(t, mustLoad(t, c, 2), 2)
	mustLoad(t, c, 2)
	if got := src.loads.Load(); got != 2 {
		t.Fatalf("underlying loads = %d, want 2 (steps 2 and 3, once each)", got)
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheConcurrentMixedSteps(t *testing.T) {
	src := &gatedStore{Store: NewMemory(makeDataset(t, 6))}
	c, err := NewCache(src, CacheOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				step := (g + i) % 6
				f, err := c.LoadStep(step)
				if err != nil {
					t.Error(err)
					return
				}
				if f.U[0] != float32(step) {
					t.Errorf("step %d payload %v", step, f.U[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if total := s.Hits + s.Misses + s.Coalesced; total != goroutines*iters {
		t.Fatalf("accounting: %d counted, %d calls (%+v)", total, goroutines*iters, s)
	}
	if s.ResidentSteps > 2 {
		t.Fatalf("resident %d exceeds budget", s.ResidentSteps)
	}
}

func TestCacheRejectsNegativeBudget(t *testing.T) {
	src := NewMemory(makeDataset(t, 2))
	if _, err := NewCache(src, CacheOptions{MaxSteps: -1}); err == nil {
		t.Error("negative MaxSteps accepted")
	}
	if _, err := NewCache(src, CacheOptions{MaxBytes: -1}); err == nil {
		t.Error("negative MaxBytes accepted")
	}
	c, err := NewCache(src, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadStep(9); err == nil {
		t.Error("out-of-range step accepted")
	}
	if _, err := c.LoadStep(-1); err == nil {
		t.Error("negative step accepted")
	}
}

// TestCacheMetadataPassthrough pins that the cache is transparent for
// everything but LoadStep.
func TestCacheMetadataPassthrough(t *testing.T) {
	src := NewMemory(makeDataset(t, 5))
	c, err := NewCache(src, CacheOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSteps() != 5 || c.DT() != src.DT() || c.Grid() != src.Grid() {
		t.Fatalf("metadata mismatch: steps=%d dt=%v", c.NumSteps(), c.DT())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheStatsString pins the one-line summary vwserver's stats
// ticker logs, so the flag-gated main stays a thin formatter call.
func TestCacheStatsString(t *testing.T) {
	s := CacheStats{
		Hits: 9, Misses: 2, Coalesced: 1, Evictions: 3,
		WantedSteps: 6, ResidentSteps: 4, ResidentBytes: 3 << 20,
	}
	got := s.String()
	want := "hits=9 misses=2 coalesced=1 evictions=3 wanted=6 resident=4 (3.0MB) hit=83%"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if zero := (CacheStats{}).String(); !strings.Contains(zero, "hit=0%") {
		t.Errorf("zero-traffic String() = %q", zero)
	}
}

// TestCacheFailedCoalescedLoadAccounting pins the byte-budget
// accounting on the error path: a failed load that several sessions
// coalesced onto must charge the budget nothing, leave no phantom
// resident entry, and release every waiter with the source's error —
// and a later retry must make the step resident with its bytes counted
// exactly once.
func TestCacheFailedCoalescedLoadAccounting(t *testing.T) {
	boom := errors.New("spindle fell off")
	src := &gatedStore{
		Store: NewMemory(makeDataset(t, 3)),
		gate:  make(chan struct{}),
		enter: make(chan int),
		fail:  map[int]error{1: boom},
	}
	c, err := NewCache(src, CacheOptions{MaxSteps: 2, MaxBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.LoadStep(1)
		}(i)
	}
	// One underlying read enters; wait for the other three to join the
	// flight before letting it fail.
	<-src.enter
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced != waiters-1; {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(src.gate)
	wg.Wait()

	for i, e := range errs {
		if !errors.Is(e, boom) {
			t.Fatalf("waiter %d error = %v, want %v", i, e, boom)
		}
	}
	st := c.Stats()
	if src.loads.Load() != 1 {
		t.Errorf("underlying loads = %d, want 1 (coalesced)", src.loads.Load())
	}
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Errorf("stats after failed flight: %+v", st)
	}
	// The accounting claim: nothing resident, nothing charged.
	if st.ResidentSteps != 0 || st.ResidentBytes != 0 {
		t.Errorf("failed load left residue: steps=%d bytes=%d", st.ResidentSteps, st.ResidentBytes)
	}
	if c.Resident(1) {
		t.Error("failed step marked resident")
	}

	// The flight died with its error: a retry issues a fresh read (no
	// stranded in-flight entry) and charges the budget exactly once.
	src.fail = nil
	src.enter = nil
	f, err := c.LoadStep(1)
	if err != nil {
		t.Fatalf("retry after failed flight: %v", err)
	}
	checkStep(t, f, 1)
	st = c.Stats()
	if src.loads.Load() != 2 {
		t.Errorf("retry loads = %d, want 2", src.loads.Load())
	}
	if st.ResidentSteps != 1 || st.ResidentBytes != f.SizeBytes() {
		t.Errorf("retry accounting: steps=%d bytes=%d, want 1 step of %d bytes",
			st.ResidentSteps, st.ResidentBytes, f.SizeBytes())
	}
}

// Resident reports whether timestep t is currently cached.
func (c *Cache) Resident(t int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[t]
	return ok
}
