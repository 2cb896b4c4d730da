// Package maporder is the fixture for the maporder analyzer: the
// package opts in via the directive below (//vw:wire would gate
// identically), so map iteration feeding slices, strings, or writers
// is flagged while commutative bodies and the collect-then-sort idiom
// stay legal.
//
//vw:deterministic
package maporder

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
)

func badAppend(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want `map iteration order leaks into slice out`
	}
	return out
}

func badString(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `map iteration order leaks into string s`
	}
	return s
}

func badWriter(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k) // want `map iteration order leaks into a writer via WriteString`
	}
}

func badFprintf(m map[string]int, buf *bytes.Buffer) {
	for k, v := range m {
		fmt.Fprintf(buf, "%s=%d\n", k, v) // want `map iteration order leaks into a writer via fmt\.Fprintf`
	}
}

type segment struct {
	key int32
	seq uint64
}

type session struct{ rows []segment }

// badShadow is a relay shadow listed from a map-keyed cache without a
// sort: the shadow goes on the wire in map order, so two relays holding
// the same cache send different request bytes. No relay, server or
// load test would catch it, as each relay's requests agree with its own
// shadow.
func badShadow(st *session, segs map[int32]segment) []segment {
	st.rows = st.rows[:0]
	for _, cs := range segs {
		st.rows = append(st.rows, cs) // want `map iteration order leaks into slice st`
	}
	return st.rows
}

func goodShadow(st *session, segs map[int32]segment) []segment {
	st.rows = st.rows[:0]
	for _, cs := range segs {
		st.rows = append(st.rows, cs)
	}
	slices.SortFunc(st.rows, func(a, b segment) int { return cmp.Compare(a.key, b.key) })
	return st.rows
}

func goodSorted(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// goodResliceSorted is the frame pipeline's recycled-buffer idiom:
// append to the caller's dst, then sort the appended tail through a
// reslice alias.
func goodResliceSorted(m map[int]string, dst []string) []string {
	base := len(dst)
	for _, v := range m {
		dst = append(dst, v)
	}
	out := dst[base:]
	sort.Strings(out)
	return dst
}

func goodDeleteOnly(m map[int]string) {
	for k, v := range m {
		if v == "" {
			delete(m, k)
		}
	}
}

func goodCounter(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v // numeric accumulation is commutative
	}
	return total
}

func goodMin(m map[int]int) int {
	best := 1 << 30
	for _, v := range m {
		if v < best {
			best = v // min reduction is commutative
		}
	}
	return best
}

func goodLoopLocal(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...) // loop-local accumulator dies each iteration
		n += len(local)
	}
	return n
}

func allowed(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) //vw:allow maporder -- fixture: the caller sorts before encoding
	}
	return out
}
