package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
)

// wantedRuns is Play.appendRun over an 8-step dataset, case by case:
// forward and reverse, stopping and looping, the playhead at 0, in the
// middle, at N-2 and at N-1, for a scene without particle paths
// (figure 8's double buffer), a reach of 5 and a reach past the
// dataset's length.
var wantedRuns = []struct {
	step          int
	reverse, loop bool
	reach         int
	want          []int
}{
	{0, false, false, 0, []int{0, 1}},
	{0, false, false, 5, []int{0, 1, 2, 3, 4, 5, 6}},
	{0, false, false, 9, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	{4, false, false, 0, []int{4, 5}},
	{4, false, false, 5, []int{4, 5, 6, 7}},
	{4, false, false, 9, []int{4, 5, 6, 7}},
	{6, false, false, 0, []int{6, 7}},
	{6, false, false, 5, []int{6, 7}},
	{6, false, false, 9, []int{6, 7}},
	{7, false, false, 0, []int{7}},
	{7, false, false, 5, []int{7}},
	{7, false, false, 9, []int{7}},
	{0, false, true, 0, []int{0, 1}},
	{0, false, true, 5, []int{0, 1, 2, 3, 4, 5, 6}},
	{0, false, true, 9, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	{4, false, true, 0, []int{4, 5}},
	{4, false, true, 5, []int{4, 5, 6, 7, 0, 1, 2}},
	{4, false, true, 9, []int{4, 5, 6, 7, 0, 1, 2, 3}},
	{6, false, true, 0, []int{6, 7}},
	{6, false, true, 5, []int{6, 7, 0, 1, 2, 3, 4}},
	{6, false, true, 9, []int{6, 7, 0, 1, 2, 3, 4, 5}},
	{7, false, true, 0, []int{7, 0}},
	{7, false, true, 5, []int{7, 0, 1, 2, 3, 4, 5}},
	{7, false, true, 9, []int{7, 0, 1, 2, 3, 4, 5, 6}},
	{0, true, false, 0, []int{0}},
	{0, true, false, 5, []int{0, 1, 2, 3, 4, 5}},
	{0, true, false, 9, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	{4, true, false, 0, []int{4, 3}},
	{4, true, false, 5, []int{4, 5, 6, 7, 3, 2, 1}},
	{4, true, false, 9, []int{4, 5, 6, 7, 3, 2, 1, 0}},
	{6, true, false, 0, []int{6, 5}},
	{6, true, false, 5, []int{6, 7, 5, 4, 3, 2, 1}},
	{6, true, false, 9, []int{6, 7, 5, 4, 3, 2, 1, 0}},
	{7, true, false, 0, []int{7, 6}},
	{7, true, false, 5, []int{7, 6, 5, 4, 3, 2, 1}},
	{7, true, false, 9, []int{7, 6, 5, 4, 3, 2, 1, 0}},
	{0, true, true, 0, []int{0, 7}},
	{0, true, true, 5, []int{0, 1, 2, 3, 4, 5, 7}},
	{0, true, true, 9, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	{4, true, true, 0, []int{4, 3}},
	{4, true, true, 5, []int{4, 5, 6, 7, 3, 2, 1}},
	{4, true, true, 9, []int{4, 5, 6, 7, 3, 2, 1, 0}},
	{6, true, true, 0, []int{6, 5}},
	{6, true, true, 5, []int{6, 7, 5, 4, 3, 2, 1}},
	{6, true, true, 9, []int{6, 7, 5, 4, 3, 2, 1, 0}},
	{7, true, true, 0, []int{7, 6}},
	{7, true, true, 5, []int{7, 6, 5, 4, 3, 2, 1}},
	{7, true, true, 9, []int{7, 6, 5, 4, 3, 2, 1, 0}},
}

func TestWantedRunTable(t *testing.T) {
	for _, tc := range wantedRuns {
		p := Play{Step: tc.step, First: tc.step, Reverse: tc.reverse, Loop: tc.loop, Reach: tc.reach}
		if got := p.appendRun(nil, 8); !slices.Equal(got, tc.want) {
			t.Errorf("%+v: run %v, want %v", p, got, tc.want)
		}
	}
}

// playedRun derives the wanted run the long way: it moves a playhead —
// starting where the paths do, or at the step in a scene without them —
// along the play and collects each playhead's path window, ascending,
// until reach+2 distinct steps are in hand or the play ends.
func playedRun(p Play, n int) []int {
	reach := min(max(p.Reach, 0), n)
	want := min(reach+2, n)
	var run []int
	head := min(max(p.Step, 0), n-1)
	if reach > 0 {
		head = min(max(p.First, 0), head)
	}
	for moves := 0; moves <= 2*n; moves++ {
		for t := head; t <= min(head+reach, n-1); t++ {
			if !slices.Contains(run, t) {
				if run = append(run, t); len(run) == want {
					return run
				}
			}
		}
		if p.Reverse {
			head--
		} else {
			head++
		}
		if head < 0 || head >= n {
			if !p.Loop {
				break
			}
			head = (head + n) % n
		}
	}
	return run
}

// TestWantedRunIsThePlay sweeps datasets, playheads and reaches
// (out-of-range ones included), paths starting at the step or a level
// below it, and compares appendRun with the play walked a playhead at a
// time.
func TestWantedRunIsThePlay(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for step := -2; step <= n+1; step++ {
			for reach := -1; reach <= n+2; reach++ {
				for flags := 0; flags < 8; flags++ {
					p := Play{Step: step, First: step - flags>>2, Reverse: flags&1 != 0, Loop: flags&2 != 0, Reach: reach}
					got, want := p.appendRun(nil, n), playedRun(p, n)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d %+v: run %v, the play touches %v", n, p, got, want)
					}
				}
			}
		}
	}
	if got := (Play{Reach: 3}).appendRun([]int{42}, 0); !slices.Equal(got, []int{42}) {
		t.Errorf("empty dataset: run %v", got)
	}
}

// residentSteps lists what the cache holds.
func residentSteps(c *Cache) []int {
	var steps []int
	for s := 0; s < c.NumSteps(); s++ {
		if c.Resident(s) {
			steps = append(steps, s)
		}
	}
	return steps
}

func TestWindowResidency(t *testing.T) {
	c, err := NewCache(NewMemory(makeDataset(t, 10)), CacheOptions{MaxSteps: 1, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Follow(Play{Step: 2, First: 2, Reach: 1})
	c.Wait()
	if got := residentSteps(c); !slices.Equal(got, []int{2, 3, 4}) {
		t.Errorf("resident %v, want the wanted run 2 3 4", got)
	}
	// Sliding forward sheds what fell out and reads what entered.
	c.Follow(Play{Step: 4, First: 4, Reach: 1})
	c.Wait()
	if got := residentSteps(c); !slices.Equal(got, []int{4, 5, 6}) {
		t.Errorf("resident %v after the slide, want 4 5 6", got)
	}
	// Steps outside the run still load through, and do not stay.
	checkStep(t, mustLoad(t, c, 0), 0)
	if got := residentSteps(c); !slices.Equal(got, []int{4, 5, 6}) {
		t.Errorf("resident %v after a load outside the run, want 4 5 6", got)
	}
	if s := c.Stats(); s.WantedSteps != 3 || s.ResidentSteps != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWindowClampsEnd(t *testing.T) {
	c, _ := NewCache(NewMemory(makeDataset(t, 4)), CacheOptions{MaxSteps: 1, Prefetch: true})
	c.Follow(Play{Step: 2, First: 2, Reach: 10})
	c.Wait()
	if got := residentSteps(c); !slices.Equal(got, []int{2, 3}) {
		t.Errorf("resident %v, want 2 3: a play that stops at the end wants nothing past it", got)
	}
	if got := c.Stats().Misses; got != 2 {
		t.Errorf("%d steps read, want 2", got)
	}
}

func TestWindowNegativeBaseClamps(t *testing.T) {
	c, _ := NewCache(NewMemory(makeDataset(t, 5)), CacheOptions{MaxSteps: 1, Prefetch: true})
	c.Follow(Play{Step: -7})
	c.Wait()
	if !c.Resident(0) {
		t.Error("clamped playhead did not load step 0")
	}
}

// TestWindowPropagatesLoadError: a step of the wanted run that cannot
// be read ends the fill (it does not spin on the file), is not cached,
// and comes back as the source's error to the LoadStep that needs it;
// the next round's Prefetch tries it again.
func TestWindowPropagatesLoadError(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, makeDataset(t, 5)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "step_000002.vwt")); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCache(d, CacheOptions{MaxSteps: 1, Prefetch: true})
	c.Follow(Play{Step: 1, First: 1, Reach: 2})
	c.Wait()
	if got := residentSteps(c); !slices.Equal(got, []int{1}) {
		t.Errorf("resident %v, want 1: the fill stops at the unreadable step", got)
	}
	if got := c.Stats().Misses; got != 2 {
		t.Errorf("%d reads attempted, want 2 (steps 1 and 2)", got)
	}
	if _, err := c.LoadStep(2); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LoadStep(2) = %v, want the missing file's error", err)
	}
	c.Follow(Play{Step: 1, First: 1, Reach: 2})
	c.Wait()
	if got := c.Stats().Misses; got != 4 {
		t.Errorf("%d reads attempted after the second round, want 4: the fill tries step 2 once more", got)
	}
}

// slowStore wraps Memory with a fixed delay, to observe prefetch
// overlap deterministically.
type slowStore struct {
	*Memory
	delay time.Duration
}

func (s slowStore) LoadStep(t int) (*field.Field, error) {
	time.Sleep(s.delay)
	return s.Memory.LoadStep(t)
}

func TestPrefetcherOverlapsLoads(t *testing.T) {
	src := slowStore{NewMemory(makeDataset(t, 10)), 30 * time.Millisecond}
	c, _ := NewCache(src, CacheOptions{MaxSteps: 1, Prefetch: true})
	start := time.Now()
	c.Follow(Play{Step: 0})
	if elapsed := time.Since(start); elapsed > 15*time.Millisecond {
		t.Errorf("Prefetch took %v: it waited for a read", elapsed)
	}
	c.Wait() // the round computes meanwhile
	start = time.Now()
	checkStep(t, mustLoad(t, c, 1), 1)
	if elapsed := time.Since(start); elapsed > 15*time.Millisecond {
		t.Errorf("prefetched load took %v, want ~0", elapsed)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPrefetcherMissFallsThrough(t *testing.T) {
	src := &gatedStore{Store: NewMemory(makeDataset(t, 5))}
	c, _ := NewCache(src, CacheOptions{MaxSteps: 1, Prefetch: true})
	// Nothing was prefetched: the load reads on the caller's goroutine.
	checkStep(t, mustLoad(t, c, 2), 2)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 || src.loads.Load() != 1 {
		t.Errorf("stats = %+v, source loads %d", st, src.loads.Load())
	}
}

func TestPrefetcherIgnoresOutOfRange(t *testing.T) {
	src := &gatedStore{Store: NewMemory(makeDataset(t, 3)), enter: make(chan int, 16)}
	c, _ := NewCache(src, CacheOptions{MaxSteps: 1, Prefetch: true})
	// A playhead outside the dataset clamps into it, and a play that
	// stops at the last step has no next step to read.
	c.Follow(Play{Step: -1})
	c.Wait()
	c.Follow(Play{Step: 3})
	c.Wait()
	c.Follow(Play{Step: 2, First: 2, Reach: 7})
	c.Wait()
	close(src.enter)
	for step := range src.enter {
		if step < 0 || step > 2 {
			t.Errorf("background read of step %d, outside [0, 3)", step)
		}
	}
	if got := src.loads.Load(); got != 3 {
		t.Errorf("%d background reads, want 3 (steps 0, 1, 2)", got)
	}
}

func TestPrefetcherConcurrentAccess(t *testing.T) {
	c, _ := NewCache(NewMemory(makeDataset(t, 20)), CacheOptions{MaxSteps: 2, Prefetch: true})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < 20; s++ {
				c.Follow(Play{Step: s, First: s, Reverse: w%2 == 1, Loop: w%4 < 2, Reach: w})
				f, err := c.LoadStep(s)
				if err != nil {
					t.Errorf("worker %d step %d: %v", w, s, err)
					return
				}
				if f.U[0] != float32(s) {
					t.Errorf("worker %d step %d wrong payload", w, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Wait()
}

// TestPinsSurviveAnyBudget: the wanted run stays resident under a
// budget smaller than it, by count or by bytes, while everything else
// is evicted to meet the budget; a budget larger than the run keeps
// its LRU on top.
func TestPinsSurviveAnyBudget(t *testing.T) {
	stepBytes := makeDataset(t, 1).Steps[0].SizeBytes()
	for _, tc := range []struct {
		name     string
		opts     CacheOptions
		resident []int
	}{
		{"one step", CacheOptions{MaxSteps: 1}, []int{3, 4, 5, 6, 7}},
		{"one byte", CacheOptions{MaxBytes: 1}, []int{3, 4, 5, 6, 7}},
		{"both", CacheOptions{MaxSteps: 2, MaxBytes: stepBytes}, []int{3, 4, 5, 6, 7}},
		{"run plus two", CacheOptions{MaxSteps: 7}, []int{0, 3, 4, 5, 6, 7, 11}},
		{"bytes for run plus one", CacheOptions{MaxBytes: 6 * stepBytes}, []int{0, 3, 4, 5, 6, 7}},
	} {
		c, err := NewCache(NewMemory(makeDataset(t, 12)), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.Follow(Play{Step: 3, First: 3, Reach: 3})
		// Reads inside and outside the run, in an order that would
		// evict the run first were it not pinned; 0 is the most recent.
		for _, s := range []int{3, 4, 5, 6, 7, 9, 10, 11, 0} {
			mustLoad(t, c, s)
		}
		if got := residentSteps(c); !slices.Equal(got, tc.resident) {
			t.Errorf("%s: resident %v, want %v", tc.name, got, tc.resident)
		}
		// Moving on unpins: the old run is ordinary LRU again.
		c.Follow(Play{Step: 11})
		st := c.Stats()
		if tc.opts.MaxSteps > 0 && st.ResidentSteps > max(tc.opts.MaxSteps, 1) {
			t.Errorf("%s: %d steps resident after the run moved on, budget %d", tc.name, st.ResidentSteps, tc.opts.MaxSteps)
		}
		if tc.opts.MaxBytes > 0 && st.ResidentBytes > max(tc.opts.MaxBytes, stepBytes) {
			t.Errorf("%s: %d bytes resident after the run moved on, budget %d", tc.name, st.ResidentBytes, tc.opts.MaxBytes)
		}
		if st.ResidentBytes != int64(st.ResidentSteps)*stepBytes {
			t.Errorf("%s: %d bytes booked for %d steps", tc.name, st.ResidentBytes, st.ResidentSteps)
		}
	}
}

// TestFillAndForegroundShareOneRead: a foreground LoadStep of the step
// a fill is reading joins that read — one underlying load, counted as
// one miss and one coalesced join — and the call that moved the
// playhead returned while the source was still blocked.
func TestFillAndForegroundShareOneRead(t *testing.T) {
	src := &gatedStore{
		Store: NewMemory(makeDataset(t, 6)),
		gate:  make(chan struct{}),
		enter: make(chan int, 8),
	}
	c, _ := NewCache(src, CacheOptions{MaxSteps: 1, Prefetch: true})

	c.Follow(Play{Step: 2, First: 2, Reach: 1}) // returns: the gate is still shut
	if step := <-src.enter; step != 2 {
		t.Fatalf("the fill began with step %d, want the playhead's", step)
	}
	// More rounds arrive while the read is stuck; none waits, none
	// starts a second fill.
	for i := 0; i < 3; i++ {
		c.Follow(Play{Step: 2, First: 2, Reach: 1})
	}
	c.Follow(Play{Step: 2, First: 2, Reach: 1})
	if c.Resident(2) {
		t.Fatal("step resident before its read finished")
	}

	got := make(chan *field.Field)
	go func() {
		f, err := c.LoadStep(2)
		if err != nil {
			t.Error(err)
		}
		got <- f
	}()
	// The foreground load must be parked on the flight, not reading.
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(src.gate)
	checkStep(t, <-got, 2)
	c.Wait()
	if loads := src.loads.Load(); loads != 3 {
		t.Errorf("underlying loads = %d, want 3 (steps 2, 3, 4 once each)", loads)
	}
	if st := c.Stats(); st.Misses != 3 || st.Coalesced != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := residentSteps(c); !slices.Equal(got, []int{2, 3, 4}) {
		t.Errorf("resident %v, want 2 3 4", got)
	}
}

// TestSeekStormLeavesNothingBehind: 200 seeded seeks, forward and
// reverse play, loop on and off, over a 64-step Disk. A read begun for
// a playhead the user has since left lands in the cache as an ordinary
// entry and is evicted like one: when the storm ends no goroutine is
// left, no more is resident than the wanted run or the budget allows,
// and the bytes booked are the bytes held.
func TestSeekStormLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, makeDataset(t, 64)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	c, err := NewCache(d, CacheOptions{MaxSteps: budget, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		play := Play{
			Step:    rng.Intn(64),
			Reverse: rng.Intn(2) == 0,
			Loop:    rng.Intn(2) == 0,
			Reach:   rng.Intn(24),
		}
		// Paths start at the step or, when time was rounded up, one below.
		play.First = max(play.Step-rng.Intn(2), 0)
		c.Follow(play)
		// The round's own step, and now and then a few rounds of play
		// from where the seek landed.
		checkStep(t, mustLoad(t, c, play.Step), float32(play.Step))
		for r := rng.Intn(4); r > 0; r-- {
			if play.Reverse {
				play.Step = max(play.Step-1, 0)
			} else {
				play.Step = min(play.Step+1, 63)
			}
			play.First = play.Step
			c.Follow(play)
			checkStep(t, mustLoad(t, c, play.Step), float32(play.Step))
		}
	}
	c.Wait()
	for tries := 0; runtime.NumGoroutine() > goroutines && tries < 100; tries++ {
		time.Sleep(time.Millisecond) // exiting goroutines are counted until they are gone
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after the storm, %d before", got, goroutines)
	}
	st := c.Stats()
	if st.ResidentSteps > max(st.WantedSteps, budget) {
		t.Errorf("%d steps resident, wanted run %d, budget %d", st.ResidentSteps, st.WantedSteps, budget)
	}
	var held int64
	for _, s := range residentSteps(c) {
		held += mustLoad(t, c, s).SizeBytes()
	}
	if st.ResidentBytes != held {
		t.Errorf("ResidentBytes = %d, resident steps hold %d", st.ResidentBytes, held)
	}
	if loads, _, _ := d.Stats(); loads != st.Misses {
		t.Errorf("%d disk loads, %d cache misses", loads, st.Misses)
	}
}

// TestDiskRejectsForeignStepFile: a step file that is not a timestep
// of this dataset is refused by name before its samples are read — the
// wrong dimensions, a length its header does not account for, and the
// 20-byte header that announces 2^42 samples.
func TestDiskRejectsForeignStepFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, makeDataset(t, 2)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "step_000001.vwt")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := func(ni, nj, nk uint32) []byte {
		b := slices.Clone(good[:20])
		for i, v := range []uint32{ni, nj, nk} {
			b[4+4*i], b[5+4*i], b[6+4*i], b[7+4*i] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		return b
	}
	for name, content := range map[string][]byte{
		"same node count, other shape": append(hdr(4, 8, 8), good[20:]...),
		"trailing bytes":               append(slices.Clone(good), 0),
		"short by one sample":          good[:len(good)-4],
		"header only":                  good[:20],
		"2^42 samples in 20 bytes":     hdr(1<<14, 1<<14, 1<<14),
		"2^27 samples in 20 bytes":     hdr(1<<9, 1<<9, 1<<9),
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		before := new(runtime.MemStats)
		runtime.ReadMemStats(before)
		_, err := d.LoadStep(1)
		after := new(runtime.MemStats)
		runtime.ReadMemStats(after)
		if err == nil {
			t.Errorf("%s: loaded", name)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error does not name the file: %v", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", name, grew)
		}
	}
	if _, err := d.LoadStep(0); err != nil {
		t.Errorf("intact step failed: %v", err)
	}
}
