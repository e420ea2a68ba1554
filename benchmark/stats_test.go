package main

import "testing"

// A timing reports the highest percentile with at least ten samples
// beyond it: p99 at n = 1000, p90 at n = 100.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {99, 75}, {40, 75}, {20, 50}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.N != 100 || s.TailP != 90 {
		t.Fatalf("n=%d tail p%v, want n=100 p90", s.N, s.TailP)
	}
	approx(t, "median", s.Median, 50.5)
	approx(t, "p90", s.Tail, 90.1)
	approx(t, "mean", s.Mean, 50.5)
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
}

func TestSpreadOf(t *testing.T) {
	sp := spreadOf([]float64{10, 12, 8, 11, 9})
	approx(t, "median", sp.Median, 10)
	approx(t, "q1", sp.Q1, 9)
	approx(t, "q3", sp.Q3, 11)
	approx(t, "range", sp.Range, 0.4)
}
