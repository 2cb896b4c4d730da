package store

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/grid"
)

// CacheOptions configures a Cache.
type CacheOptions struct {
	// MaxSteps bounds the number of resident timesteps. Zero means no
	// count bound.
	MaxSteps int
	// MaxBytes bounds the total resident field bytes. Zero means no
	// byte bound.
	MaxBytes int64
	// Prefetch reads the wanted run's missing steps in the background,
	// in play order; off, each is read by the LoadStep that needs it.
	Prefetch bool
}

// Cache is the one resident set of an I/O-backed server: every
// timestep the server holds, whoever asked for it, is an entry here,
// and every read of the source goes through its single-flight table.
// It keeps two kinds of step resident.
//
// The wanted run is §5.1's window — "the current timestep plus the
// maximum particle path length" — laid out along the play: Follow is
// told where the playhead is and the cache derives the steps the play
// touches next, in the order it touches them (Play). Those are pinned
// whatever the budget says; with CacheOptions.Prefetch its Prefetcher
// reads the missing ones in that order in the background (figure 8's
// second buffer is the run of a scene without particle paths: the step
// in use and the next).
//
// Everything else is recently used steps under the CacheOptions budget,
// shared by every session of the server. In the disk regime the paper's
// remote host pays one mass-storage read per timestep per playback
// pass; with many workstations attached, the sessions' overlapping
// time positions make most loads repeats, so an LRU in front of the
// disk turns them into memory hits.
//
// At least one timestep stays resident regardless of budget — a cache
// that cannot hold the step it just loaded would re-read every call.
// The cache never calls its source with mu held, and no call but a
// LoadStep of a step that is not resident waits for a read. It never
// rewrites a field it handed out: eviction drops the cache's reference
// and nothing else, so what a round loaded stays valid.
type Cache struct {
	src  Store
	opts CacheOptions
	pf   *Prefetcher // nil unless opts.Prefetch

	hits, misses, coalesced, evictions atomic.Int64

	mu       sync.Mutex            // guards everything below
	entries  map[int]*list.Element // timestep -> lru element
	lru      *list.List            // of *cacheEntry; front = most recent
	bytes    int64
	inflight map[int]*cacheFlight
	// run is the wanted run in play order; its resident entries are
	// the pinned ones. filling is set while a Prefetcher's fill runs.
	run     []int
	filling bool
}

type cacheEntry struct {
	t      int
	f      *field.Field
	size   int64
	pinned bool // t is in the wanted run
}

// cacheFlight is one in-progress underlying load; concurrent callers
// for the same step wait on done instead of issuing duplicate reads.
type cacheFlight struct {
	done chan struct{}
	f    *field.Field
	err  error
}

// NewCache wraps src with a shared LRU under the given budget. A Ring
// is refused: it recycles the fields the cache would hold.
func NewCache(src Store, opts CacheOptions) (*Cache, error) {
	if opts.MaxSteps < 0 || opts.MaxBytes < 0 {
		return nil, fmt.Errorf("store: negative cache budget (steps=%d bytes=%d)",
			opts.MaxSteps, opts.MaxBytes)
	}
	if _, ok := src.(*Ring); ok {
		return nil, fmt.Errorf("store: a live ring keeps its own residency and recycles its fields; it cannot sit under a cache")
	}
	c := &Cache{
		src:      src,
		opts:     opts,
		entries:  make(map[int]*list.Element),
		lru:      list.New(),
		inflight: make(map[int]*cacheFlight),
	}
	if opts.Prefetch {
		c.pf = &Prefetcher{c: c}
	}
	return c, nil
}

// Grid implements Store.
func (c *Cache) Grid() *grid.Grid { return c.src.Grid() }

// NumSteps implements Store.
func (c *Cache) NumSteps() int { return c.src.NumSteps() }

// DT implements Store.
func (c *Cache) DT() float32 { return c.src.DT() }

// Close implements Store.
func (c *Cache) Close() error { return c.src.Close() }

// LoadStep implements Store. Resident steps return immediately; a step
// already being loaded — by a fill or by another caller — is joined
// rather than re-read; anything else reads from the source on the
// caller's goroutine and becomes resident, evicting least-recently
// used steps past the budget.
func (c *Cache) LoadStep(t int) (*field.Field, error) {
	if t < 0 || t >= c.src.NumSteps() {
		return nil, fmt.Errorf("store: timestep %d out of range [0, %d)", t, c.src.NumSteps())
	}
	c.mu.Lock()
	if el, ok := c.entries[t]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*cacheEntry).f, nil
	}
	if fl, ok := c.inflight[t]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.f, fl.err
	}
	fl := &cacheFlight{done: make(chan struct{})}
	c.inflight[t] = fl
	c.mu.Unlock()
	c.misses.Add(1)

	f, err := c.src.LoadStep(t)
	fl.f, fl.err = f, err

	c.mu.Lock()
	delete(c.inflight, t)
	if err == nil {
		c.insertLocked(t, f)
	}
	c.mu.Unlock()
	close(fl.done)
	return f, err
}

// insertLocked makes timestep t resident and evicts over budget. Only
// the owner of t's flight gets here, so t is not resident yet.
func (c *Cache) insertLocked(t int, f *field.Field) {
	e := &cacheEntry{t: t, f: f, size: f.SizeBytes(), pinned: slices.Contains(c.run, t)}
	c.entries[t] = c.lru.PushFront(e)
	c.bytes += e.size
	c.evictLocked()
}

// evictLocked drops least-recently-used steps while the cache is over
// budget, never a pinned one and never the last one resident — with no
// wanted run that is the most recent entry.
func (c *Cache) evictLocked() {
	for el := c.lru.Back(); el != nil && c.lru.Len() > 1 && c.overBudgetLocked(); {
		victim, prev := el.Value.(*cacheEntry), el.Prev()
		if !victim.pinned {
			c.lru.Remove(el)
			delete(c.entries, victim.t)
			c.bytes -= victim.size
			c.evictions.Add(1)
		}
		el = prev
	}
}

func (c *Cache) overBudgetLocked() bool {
	if c.opts.MaxSteps > 0 && c.lru.Len() > c.opts.MaxSteps {
		return true
	}
	if c.opts.MaxBytes > 0 && c.bytes > c.opts.MaxBytes {
		return true
	}
	return false
}

// appendRun appends the wanted run of a dataset of n steps to dst: the
// first Reach+2 distinct steps the play touches from its playhead s —
// the playhead's path window ascending, then what the next playhead's
// window adds, and so on. Forward that is [s, s+Reach+2), wrapping to
// 0, 1, ... on Loop; in reverse [s, s+Reach] and then s-1, s-2, ...,
// wrapping to n-1 on Loop. Without Loop the run ends where the play
// does. The playhead is First, or Step if that is lower; a scene
// without particle paths (Reach 0) reads nothing below Step, so there
// it is Step.
func (p Play) appendRun(dst []int, n int) []int {
	if n < 1 {
		return dst
	}
	s := min(max(p.Step, 0), n-1)
	if p.Reach > 0 {
		s = min(max(p.First, 0), s)
	}
	reach := min(max(p.Reach, 0), n)
	want := min(reach+2, n)
	if !p.Reverse {
		for i := 0; i < want; i++ {
			t := s + i
			if t >= n {
				if !p.Loop {
					break
				}
				t -= n
			}
			dst = append(dst, t)
		}
		return dst
	}
	from := len(dst)
	for t := s; t <= min(s+reach, n-1); t++ {
		dst = append(dst, t)
	}
	for t := s - 1; len(dst)-from < want; t-- {
		if t < 0 {
			if !p.Loop {
				break
			}
			t = n - 1
		}
		dst = append(dst, t)
	}
	return dst
}

// Follow implements Source. The wanted run becomes p's: its resident
// steps are pinned and the previous run's become ordinary entries
// again, evicted if the budget says so. With prefetching on, a fill
// starts reading the run's missing steps; otherwise each is read by
// the LoadStep that needs it. Follow itself waits for no read, and the
// cache serves every step, so it returns p.Step.
func (c *Cache) Follow(p Play) int {
	n := c.src.NumSteps()
	c.mu.Lock()
	c.pinRunLocked(false)
	c.run = p.appendRun(c.run[:0], n)
	c.pinRunLocked(true)
	c.evictLocked()
	c.mu.Unlock()
	if c.pf != nil {
		c.pf.Prefetch()
	}
	return p.Step
}

// Wait returns once no background fill is running.
//
//vw:testonly
func (c *Cache) Wait() {
	if c.pf != nil {
		c.pf.fills.Wait()
	}
}

func (c *Cache) pinRunLocked(pinned bool) {
	for _, t := range c.run {
		if el, ok := c.entries[t]; ok {
			el.Value.(*cacheEntry).pinned = pinned
		}
	}
}

// claimFill makes the caller the cache's one running fill if there is
// a wanted step to read and no fill is running; the fill is over when
// nextFill says so.
func (c *Cache) claimFill() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, missing := c.firstMissingLocked(); c.filling || !missing {
		return false
	}
	c.filling = true
	return true
}

// nextFill hands the running fill its next read: the first step of the
// wanted run, as it stands now, that is neither resident nor being
// read. With none left the fill is over, as it is after a read that
// failed (last != nil): the next round's Prefetch tries that step
// again.
func (c *Cache) nextFill(last error) (t int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok = c.firstMissingLocked(); !ok || last != nil {
		c.filling = false
		return 0, false
	}
	return t, true
}

func (c *Cache) firstMissingLocked() (int, bool) {
	for _, t := range c.run {
		_, resident := c.entries[t]
		_, reading := c.inflight[t]
		if !resident && !reading {
			return t, true
		}
	}
	return 0, false
}

// Prefetcher overlaps timestep loading with computation, the paper's
// figure-8 architecture: "The timestep required for the next
// computation is loaded into a buffer" while the current one is used.
// It owns the goroutine that fills a prefetching Cache's wanted run;
// only NewCache makes one. The type and Prefetch keep exported names
// for the stack walks (benchmark/trace.go, the server's resident tests)
// that find a background read by its (*Prefetcher).Prefetch frame.
//
//vw:testonly
type Prefetcher struct {
	c     *Cache
	fills sync.WaitGroup
}

// Prefetch starts a fill if the wanted run has steps to read and no
// fill is running: a goroutine that reads the first missing step of the
// run — the run as it stands at each read, so a seek redirects it —
// until none is missing. Prefetch itself never waits for a read. Every
// fill goroutine starts from this frame, which is how a stack tells a
// background read from one a round is waiting for.
//
//vw:testonly
func (p *Prefetcher) Prefetch() {
	if !p.c.claimFill() {
		return
	}
	p.fills.Add(1)
	go func() {
		defer p.fills.Done()
		var err error
		for {
			t, ok := p.c.nextFill(err)
			if !ok {
				return
			}
			_, err = p.c.LoadStep(t)
		}
	}()
}

// CacheStats counts cache activity. Hits were served from resident
// steps, Coalesced joined an in-flight load (no second read issued),
// Misses paid an underlying read, Evictions counts steps dropped to
// stay within budget. WantedSteps is the length of the wanted run:
// ResidentSteps exceeds the budget by no more than that.
type CacheStats struct {
	Hits, Misses, Coalesced, Evictions int64
	WantedSteps, ResidentSteps         int
	ResidentBytes                      int64
}

// HitRate returns the fraction of LoadStep calls that avoided an
// underlying read (hits plus coalesced joins), or 0 with no traffic.
//
//vw:testonly
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// String renders the counters as the one-line summary vwserver's stats
// ticker logs.
func (s CacheStats) String() string {
	return fmt.Sprintf(
		"hits=%d misses=%d coalesced=%d evictions=%d wanted=%d resident=%d (%.1fMB) hit=%.0f%%",
		s.Hits, s.Misses, s.Coalesced, s.Evictions,
		s.WantedSteps, s.ResidentSteps, float64(s.ResidentBytes)/(1<<20), 100*s.HitRate())
}

// Stats reports cumulative cache statistics.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	wanted := len(c.run)
	resident := c.lru.Len()
	bytes := c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		WantedSteps:   wanted,
		ResidentSteps: resident,
		ResidentBytes: bytes,
	}
}
