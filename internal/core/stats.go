package core

import (
	"fmt"
	"slices"
	"time"
)

// Summary aggregates frame results against the §1.2 budget.
type Summary struct {
	Frames       int
	Mean         time.Duration
	P50          time.Duration
	P95          time.Duration
	Worst        time.Duration
	WithinBudget int
	MeanPoints   int
}

// Summarize computes budget statistics over a frame sequence.
func Summarize(results []FrameResult) Summary {
	if len(results) == 0 {
		return Summary{}
	}
	times := make([]time.Duration, len(results))
	var sum time.Duration
	var within, points int
	for i, r := range results {
		times[i] = r.Total
		sum += r.Total
		if r.WithinBudget {
			within++
		}
		points += r.Points
	}
	slices.Sort(times)
	return Summary{
		Frames:       len(results),
		Mean:         sum / time.Duration(len(results)),
		P50:          Percentile(times, 0.50),
		P95:          Percentile(times, 0.95),
		Worst:        times[len(times)-1],
		WithinBudget: within,
		MeanPoints:   points / len(results),
	}
}

// Percentile returns the q-quantile (0 <= q <= 1) of an
// ascending-sorted slice: the sample at the rank nearest q·(n−1),
// halves rounding up, or 0 for no samples.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted)-1)+0.5), len(sorted)-1)]
}

// String renders a one-line report.
func (s Summary) String() string {
	if s.Frames == 0 {
		return "no frames"
	}
	return fmt.Sprintf("%d frames: mean %v p50 %v p95 %v worst %v; %d/%d within %v; ~%d points/frame",
		s.Frames,
		s.Mean.Round(10*time.Microsecond),
		s.P50.Round(10*time.Microsecond),
		s.P95.Round(10*time.Microsecond),
		s.Worst.Round(10*time.Microsecond),
		s.WithinBudget, s.Frames, FrameBudget, s.MeanPoints)
}
