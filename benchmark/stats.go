package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may report as its tail, highest
// first. A timing reports the highest one that still has at least
// minBeyond samples above it, so a tail is never an extrapolation from a
// handful of points: p99 needs 1000 samples, p90 needs 100.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile returns the percentile a timing of n samples reports as
// its tail (50 when even the median has fewer than minBeyond samples
// beyond it).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// timing summarizes a latency sample: median, the tail percentile chosen
// by tailPercentile, the mean, and the sample count.
type timing struct {
	N      int
	Median float64
	TailP  float64
	Tail   float64
	Mean   float64
}

func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{Median: math.NaN(), Tail: math.NaN(), Mean: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	p := tailPercentile(len(s))
	return timing{
		N:      len(s),
		Median: sortedQuantile(s, 0.5),
		TailP:  p,
		Tail:   sortedQuantile(s, p/100),
		Mean:   sum / float64(len(s)),
	}
}

// spread describes repeated measurements of one metric: median, quartiles
// and (max−min)/median, the numbers -repeat prints.
type spread struct {
	Median, Q1, Q3, Range float64
}

func spreadOf(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sp := spread{
		Median: sortedQuantile(s, 0.5),
		Q1:     sortedQuantile(s, 0.25),
		Q3:     sortedQuantile(s, 0.75),
	}
	if sp.Median != 0 {
		sp.Range = (s[len(s)-1] - s[0]) / math.Abs(sp.Median)
	}
	return sp
}
