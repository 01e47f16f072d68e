package main

import (
	"math"
	"sort"
)

// quantile reads the q-quantile (nearest rank) from an ascending-sorted
// sample; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median of an unsorted sample (mean of the middle two when even).
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCandidates are the percentiles a report may quote, ascending.
var tailCandidates = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// supportedTail is the highest candidate percentile with at least ten
// samples beyond it; 0.5 when even p75 has fewer (the median is then
// all the sample supports).
func supportedTail(n int) float64 {
	best := 0.5
	for _, q := range tailCandidates {
		// Rank arithmetic: 1-q is not exact in binary (100*(1-0.9) < 10).
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			best = q
		}
	}
	return best
}

// dist summarises one timing sample the way every report quotes it:
// the median, the highest percentile the count supports, and the count.
type dist struct {
	N     int
	P50   float64
	TailQ float64 // the highest percentile the count supports
	Max   float64

	sorted []float64
}

func summarize(vals []float64) dist {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d := dist{N: len(s), sorted: s, TailQ: supportedTail(len(s))}
	if len(s) == 0 {
		return d
	}
	d.P50 = quantile(s, 0.5)
	d.Max = s[len(s)-1]
	return d
}

// at reads a fixed percentile; past the supported tail it still
// answers (nearest rank degrades to the maximum), and the count in the
// run header tells the reader how much it can carry.
func (d dist) at(q float64) float64 { return quantile(d.sorted, q) }
