package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a percentile before
// the benchmark reports it: with fewer, the value is set by a handful of
// requests and moves from run to run.
const minBeyond = 10

// samples is one latency distribution, in milliseconds.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(ms float64) {
	s.xs = append(s.xs, ms)
	s.sorted = false
}

func (s *samples) n() int { return len(s.xs) }

// pct returns the nearest-rank q-quantile (0 < q < 1) and whether it may be
// reported: at least minBeyond samples must rank above it.
func (s *samples) pct(q float64) (float64, bool) {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return nearestRank(s.xs, q)
}

// nearestRank is the percentile rule on an ascending slice.
func nearestRank(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = max(rank, 1)
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median of a small set of values (set-up times); the mean of the middle two
// for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
