package main

import (
	"math"
	"sort"
)

// numBlocks is the estimator's block count at full length. Every
// timing metric is computed per block of consecutive frames and
// reported as the median of the blocks: a disturbance must cover half
// the run to move it.
const numBlocks = 20

// median returns the middle of xs (mean of the two middles for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by nearest
// rank. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// blockStats splits xs into n equal consecutive blocks (the remainder
// is dropped from the tail) and applies stat to each. With fewer
// samples than blocks there is one block: everything.
func blockStats(xs []float64, n int, stat func([]float64) float64) []float64 {
	size := len(xs) / max(n, 1)
	if size == 0 {
		return []float64{stat(xs)}
	}
	per := make([]float64, n)
	for b := range per {
		per[b] = stat(xs[b*size : (b+1)*size])
	}
	return per
}

// medianBlock returns the index of the block whose statistic is the
// median of the blocks (the lower of the two middles for an even
// count, so that it always names one block the trace can read every
// row from).
func medianBlock(per []float64) int {
	idx := make([]int, len(per))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return per[idx[a]] < per[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// blockMedian is the estimator rule: the median of the per-block
// statistics.
func blockMedian(per []float64) float64 {
	if len(per) == 0 {
		return 0
	}
	return per[medianBlock(per)]
}

// blockP50 is the estimator of every latency metric: the median over n
// blocks of the median latency within the block.
func blockP50(xs []float64, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return blockMedian(blockStats(xs, n, median))
}

// tailLadder lists the percentiles a report may quote, ascending, with
// the share of samples beyond each in parts per thousand.
var tailLadder = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// tailPercentile applies the reporting rule: the highest percentile
// that still has at least ten samples beyond it. Below 100 samples only
// the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0].p
	for _, t := range tailLadder {
		if n*t.beyond >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance check computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, clamped into the data
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
