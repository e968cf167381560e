package main

import (
	"math"
	"sort"
	"time"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle ones for an even
// count); NaN for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile: a
// percentile backed by fewer is noise, not a tail.
const minTail = 10

// tailPercentile returns the highest of the standard tail percentiles
// (p99, p90) that has at least minTail samples strictly beyond its rank,
// with ok=false when not even p90 qualifies. The value is the nearest-rank
// sample.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range []int{99, 90} {
		rank := int(math.Ceil(float64(p) / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 || n-rank < minTail {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// ratio is num/den with its base kept beside it, so a reported ratio can
// always be traced back to the counts it came from. An empty base gives 0.
type ratio struct {
	Num, Den int
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
