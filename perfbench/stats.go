package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples a reported tail percentile must have above
// it: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// dist is a sorted sample with the summary statistics the report uses.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func (d dist) median() float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d.sorted[n/2]
	}
	return (d.sorted[n/2-1] + d.sorted[n/2]) / 2
}

// tail returns the value at the highest percentile that still has at least
// minBeyond samples above it, that percentile, and the count beyond it. A
// sample too small to have one falls back to its maximum, with 0 beyond.
func (d dist) tail() (value, pct float64, beyond int) {
	n := len(d.sorted)
	if n == 0 {
		return 0, 0, 0
	}
	i := tailIndex(n)
	return d.sorted[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// tailIndex is the sorted index of the tail value in a sample of n: the
// last index with minBeyond samples after it, or the last index when
// n <= minBeyond.
func tailIndex(n int) int {
	if n <= minBeyond {
		return n - 1
	}
	return n - 1 - minBeyond
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a parent interval's duration minus the part of it that the
// union of its children covers. Children may overlap each other and may
// stick out of the parent; only their covered share of the parent counts.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(math.MinInt64)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
