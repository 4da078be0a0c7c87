package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// method of Python's statistics.quantiles, the method the regression
// gate applies to run-to-run spreads: linear interpolation at position
// p·(n+1), extrapolating from the two outermost samples beyond the
// ends. xs need not be sorted. A single sample is its own every
// quantile.
func quantile(xs []float64, p float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)+1)
	j := int(math.Floor(pos)) // 1-based index of the sample below
	j = max(1, min(j, len(s)-1))
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is quantile clamped to the observed range, so a tail
// latency is never reported beyond the slowest job seen.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return max(slices.Min(xs), min(quantile(xs, p), slices.Max(xs)))
}

// summary is a sample set reduced to the numbers a report prints.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
