// Package hotpath is the fixture for the hotpath analyzer: functions
// marked //vw:hotpath must not allocate, so make/new, growth of
// function-local slices, fmt, interface boxing, and capturing
// closures are flagged — while the recycled-buffer idioms the frame
// pipeline actually uses stay legal.
package hotpath

import (
	"fmt"
	"sort"
)

type ring struct {
	scratch []int
	buf     []byte
}

func eat(v any)     {}
func take(s string) {}
func point(p *ring) {}

//vw:hotpath
func (r *ring) Hot(dst []byte, n int) []byte {
	tmp := make([]byte, n) // want `make allocates in hot path`
	_ = tmp
	p := new(ring) // want `new allocates in hot path`
	_ = p

	var local []int
	local = append(local, n) // want `append grows function-local slice local`
	_ = local

	r.scratch = append(r.scratch, n)     // recycled field buffer: legal
	r.scratch = append(r.scratch[:0], n) // reset reuse: legal
	dst = append(dst, 1)                 // caller-provided: legal

	s := fmt.Sprintf("%d", n) // want `fmt\.Sprintf allocates in hot path`
	_ = s

	eat(n)     // want `passing int to interface parameter boxes it`
	eat(&r)    // pointer fits the interface word: legal
	eat(nil)   // legal
	take("ok") // concrete parameter: legal
	point(r)   // legal

	_ = any(n) // want `conversion to interface .* boxes a int`

	total := 0
	inc := func() { total++ } // want `closure captures enclosing variables in hot path`
	inc()

	sort.Slice(r.scratch, func(i, j int) bool { return r.scratch[i] < r.scratch[j] }) // want `closure captures enclosing variables in hot path` `passing \[\]int to interface parameter boxes it`

	grown := make([]byte, 2*cap(r.buf)) //vw:allow hotpath -- amortized growth when capacity is exceeded
	r.buf = grown
	return dst
}

// handleFrame is server.handleFrame with one scratch make per call.
// Only this analyzer catches it: the alloc tests' per-frame budgets
// (4, 16 and 8) absorb one more allocation.
//
//vw:hotpath
func (r *ring) handleFrame(payload []byte) []byte {
	scratch := make([]byte, len(payload)) // want `make allocates in hot path`
	copy(scratch, payload)
	r.buf = append(r.buf[:0], scratch...)
	return r.buf
}

// Cold is unmarked: the same code draws no findings.
func (r *ring) Cold(n int) string {
	tmp := make([]byte, n)
	_ = tmp
	return fmt.Sprintf("%d", n)
}
