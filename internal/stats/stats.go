// Package stats provides the sample-statistics machinery used by the
// detailed simulator and the experiment harness: running summaries,
// Student-t confidence intervals and quantiles.
//
// Everything here is deliberately dependency-free (stdlib math only) and
// allocation-light so it can run inside the simulator's hot loop.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ApproxEq reports whether a and b agree to within tol, relative to the
// larger magnitude once that magnitude exceeds 1 (so tol behaves as an
// absolute tolerance near zero and a relative one for large values). A
// tolerance of zero demands exact equality. NaN compares unequal to
// everything, including itself; equal infinities compare equal.
//
// This is the repo's one sanctioned floating-point equality: the floateq
// analyzer forbids raw == / != between floats everywhere else.
func ApproxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true // handles exact matches and equal infinities
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // unequal infinities differ by more than any tolerance
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Summary accumulates a running sample summary using Welford's online
// algorithm, which is numerically stable for long simulation runs.
//
// The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s (parallel-run combination).
// Uses the Chan et al. pairwise update.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
	s.sum += o.sum
}

// N returns the number of observations recorded.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the unbiased sample variance (0 if fewer than two
// observations have been recorded).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// String formats the summary for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Interval is a two-sided confidence interval for a mean.
type Interval struct {
	Mean       float64
	HalfWidth  float64
	Confidence float64 // e.g. 0.95
	N          int64
}

// Lo returns the lower endpoint of the interval.
func (iv Interval) Lo() float64 { return iv.Mean - iv.HalfWidth }

// Hi returns the upper endpoint of the interval.
func (iv Interval) Hi() float64 { return iv.Mean + iv.HalfWidth }

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo() && x <= iv.Hi() }

// RelHalfWidth returns HalfWidth/|Mean| (infinite for zero mean).
func (iv Interval) RelHalfWidth() float64 {
	if iv.Mean == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth / math.Abs(iv.Mean)
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.6g (%.0f%%, n=%d)",
		iv.Mean, iv.HalfWidth, iv.Confidence*100, iv.N)
}

// ConfidenceInterval returns a Student-t confidence interval for the mean of
// the observations recorded in s. conf must be in (0,1), commonly 0.95.
func (s *Summary) ConfidenceInterval(conf float64) (Interval, error) {
	if conf <= 0 || conf >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence %v outside (0,1)", conf)
	}
	if s.n < 2 {
		return Interval{}, errors.New("stats: need at least 2 observations for an interval")
	}
	t, err := TQuantile(1-(1-conf)/2, s.n-1)
	if err != nil {
		return Interval{}, err
	}
	return Interval{
		Mean:       s.Mean(),
		HalfWidth:  t * s.StdErr(),
		Confidence: conf,
		N:          s.n,
	}, nil
}

// TQuantile returns the p-quantile of Student's t distribution with df
// degrees of freedom, computed by inverting the regularized incomplete beta
// function via bisection on the CDF. Accuracy is ample for confidence
// intervals (abs error < 1e-9 in t). df must be positive and p must lie
// in (0,1).
func TQuantile(p float64, df int64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: t distribution needs positive degrees of freedom, got %d", df)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: t quantile probability %v outside (0,1)", p)
	}
	if ApproxEq(p, 0.5, 0) {
		return 0, nil
	}
	// The CDF is monotone; bracket then bisect. Once the midpoint is no
	// longer strictly inside the bracket it equals an end, the bracket
	// cannot move, and further steps return the same bits.
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break
		}
		c, err := TCDF(mid, df)
		if err != nil {
			return 0, err
		}
		if c < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// TCDF returns P(T <= t) for Student's t with df degrees of freedom.
// df must be positive and t must not be NaN.
func TCDF(t float64, df int64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: t distribution needs positive degrees of freedom, got %d", df)
	}
	if math.IsNaN(t) {
		return 0, errors.New("stats: t CDF of NaN")
	}
	v := float64(df)
	x := v / (v + t*t)
	// P(T<=t) = 1 - 0.5*I_x(v/2, 1/2) for t>=0, symmetric otherwise.
	ib := RegIncBeta(v/2, 0.5, x)
	if t >= 0 {
		return 1 - 0.5*ib, nil
	}
	return 0.5 * ib, nil
}

// RegIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Lentz's method), following the
// classic numerical-recipes formulation.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Quantile returns the q-quantile (0<=q<=1) of the data slice using linear
// interpolation between order statistics. The slice is not modified.
func Quantile(data []float64, q float64) (float64, error) {
	if len(data) == 0 {
		return 0, errors.New("stats: empty data")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
