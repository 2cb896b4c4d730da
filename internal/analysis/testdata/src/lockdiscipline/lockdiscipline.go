// Package lockdiscipline is the fixture for the lockdiscipline
// analyzer: *Locked call sites and "guards everything below" field
// access checked against the positional mutex model.
package lockdiscipline

import "sync"

type S struct {
	name string // above the guard: unguarded

	mu sync.Mutex // guards everything below

	count int
	items []int
	cache map[int]int
}

// bumpLocked runs with s.mu held by contract; its own field access is
// legal without a visible Lock.
func (s *S) bumpLocked() {
	s.count++
	s.helperLocked() // same receiver, still under the contract
}

func (s *S) helperLocked() { s.items = s.items[:0] }

func (s *S) Good() {
	s.mu.Lock()
	s.count = 1
	s.bumpLocked()
	s.mu.Unlock()
}

func (s *S) GoodDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, 1)
}

func (s *S) GoodUnguarded() string {
	return s.name // declared above the mutex: not guarded
}

func (s *S) BadCall() {
	s.bumpLocked() // want `s\.bumpLocked called without holding s\.mu`
}

func (s *S) BadAccess() int {
	return s.count // want `s\.count is guarded by s\.mu`
}

func (s *S) BadAfterUnlock() {
	s.mu.Lock()
	s.count = 2
	s.mu.Unlock()
	s.count = 3 // want `s\.count is guarded by s\.mu`
}

// EarlyReturn is the lock-check-unlock-return idiom: the unlock on
// the exiting branch must not end the held region for the fallthrough
// path.
func (s *S) EarlyReturn() int {
	s.mu.Lock()
	if s.count > 0 {
		v := s.count
		s.mu.Unlock()
		return v
	}
	v := s.count
	s.mu.Unlock()
	return v
}

// Reacquire drops the lock around a slow operation and takes it back.
func (s *S) Reacquire() {
	s.mu.Lock()
	n := s.count
	s.mu.Unlock()
	slow(n)
	s.mu.Lock()
	s.count = n + 1
	s.mu.Unlock()
}

func slow(int) {}

// New is construction: the value is not shared yet, so lock-free
// writes through the local are fine.
func New() *S {
	s := &S{name: "fresh"}
	s.count = 1
	s.items = append(s.items, 1)
	return s
}

// Goroutine shows the worker-closure hazard: the literal is its own
// scope, so the parent's Lock does not cover it.
func (s *S) Goroutine() {
	s.mu.Lock()
	go func() {
		s.count++ // want `s\.count is guarded by s\.mu`
	}()
	s.mu.Unlock()
}

// BadRemove is CmdRemoveRake dropping its cache entry without s.mu.
// Only this analyzer catches it: dlib runs handlers one at a time, so
// the race detector never sees the write meet a Stats reader.
func (s *S) BadRemove(k int) {
	delete(s.cache, k) // want `s\.cache is guarded by s\.mu`
}

func (s *S) Allowed() {
	s.count = 9 //vw:allow lockdiscipline -- fixture: single-owner setup phase
}
