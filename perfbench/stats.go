package main

import (
	"math"
	"sort"
)

// dist is a sample of one quantity, e.g. request latencies in milliseconds.
// A failed request enters as +Inf, so it misses every latency limit and
// pushes the upper percentiles up instead of vanishing from the sample.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// q returns the nearest-rank q-quantile, or 0 for an empty sample.
func (d *dist) q(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	i := int(math.Ceil(q*float64(len(d.xs)))) - 1
	return d.xs[max(0, min(i, len(d.xs)-1))]
}

// beyond is how many samples lie strictly above the nearest-rank q-quantile's
// position: the support a reported percentile has.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
