package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("zero-value summary not all zeros: %v", s.String())
	}
}

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if !almostEqual(s.Sum(), 40, 1e-12) {
		t.Errorf("Sum = %v, want 40", s.Sum())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, left, right Summary
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64()*3 + 1
		whole.Add(x)
		if i < 250 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if !almostEqual(left.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if !almostEqual(left.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance = %v, want %v", left.Variance(), whole.Variance())
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Errorf("merged min/max = %v/%v, want %v/%v", left.Min(), left.Max(), whole.Min(), whole.Max())
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty: no change
	if a.N() != before.N() || a.Mean() != before.Mean() {
		t.Fatalf("merge with empty changed summary")
	}
	b.Merge(a) // empty absorbing non-empty
	if b.N() != 2 || !almostEqual(b.Mean(), 2, 1e-12) {
		t.Fatalf("empty.Merge(nonempty) wrong: %v", b.String())
	}
}

// Property: mean always lies within [min, max] and variance is non-negative.
func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// bound magnitude to avoid overflow artifacts in m2
			if math.Abs(x) > 1e100 {
				continue
			}
			s.Add(x)
		}
		if s.N() > 0 {
			ok = ok && s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
			ok = ok && s.Variance() >= -1e-12
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Merge is order-insensitive for mean and variance.
func TestSummaryMergeCommutesQuick(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0:0]
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e50 {
					out = append(out, x)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, c, d Summary
		for _, x := range xs {
			a.Add(x)
			c.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			d.Add(y)
		}
		a.Merge(b) // xs then ys
		d.Merge(c) // ys then xs
		if a.N() != d.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(a.Mean())
		return almostEqual(a.Mean(), d.Mean(), 1e-8*scale) &&
			almostEqual(a.Variance(), d.Variance(), 1e-6*(1+a.Variance()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		p    float64
		df   int64
		want float64
	}{
		{0.975, 1, 12.706},
		{0.975, 5, 2.571},
		{0.975, 10, 2.228},
		{0.975, 30, 2.042},
		{0.95, 10, 1.812},
		{0.995, 10, 3.169},
	}
	for _, c := range cases {
		got, err := TQuantile(c.p, c.df)
		if err != nil {
			t.Fatalf("TQuantile(%v, %d): %v", c.p, c.df, err)
		}
		if !almostEqual(got, c.want, 5e-3) {
			t.Errorf("TQuantile(%v, %d) = %v, want ~%v", c.p, c.df, got, c.want)
		}
	}
	if got, err := TQuantile(0.5, 7); err != nil || got != 0 {
		t.Errorf("TQuantile(0.5, 7) = %v, %v; want 0", got, err)
	}
	if _, err := TQuantile(0.975, 0); err == nil {
		t.Error("TQuantile with df=0 should error")
	}
	if _, err := TQuantile(1.5, 10); err == nil {
		t.Error("TQuantile with p outside (0,1) should error")
	}
}

// tQuantile200 is TQuantile's bisection run for all 200 steps, the
// reference its early exit must match bit for bit.
func tQuantile200(p float64, df int64) (float64, error) {
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
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

func TestTQuantileMatchesFullBisection(t *testing.T) {
	ps := []float64{1e-9, 0.001, 0.01, 0.025, 0.05, 0.1, 0.5 - 1e-7, 0.5 + 1e-7, 0.9, 0.95, 0.975, 0.99, 1 - 1e-9}
	dfs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 20, 30, 40, 59, 100, 1000}
	for _, p := range ps {
		for _, df := range dfs {
			got, err := TQuantile(p, df)
			want, werr := tQuantile200(p, df)
			if err != nil || werr != nil {
				t.Fatalf("TQuantile(%v, %d): %v, reference: %v", p, df, err, werr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("TQuantile(%v, %d) = %v, want the 200-step %v bit for bit", p, df, got, want)
			}
		}
	}
}

func TestTCDFSymmetry(t *testing.T) {
	for _, df := range []int64{1, 3, 7, 25} {
		for _, x := range []float64{0, 0.5, 1.3, 4} {
			lo, errLo := TCDF(-x, df)
			hi, errHi := TCDF(x, df)
			if errLo != nil || errHi != nil {
				t.Fatalf("TCDF df=%d x=%v: %v, %v", df, x, errLo, errHi)
			}
			if !almostEqual(lo+hi, 1, 1e-10) {
				t.Errorf("TCDF symmetry broken df=%d x=%v: %v + %v != 1", df, x, lo, hi)
			}
		}
	}
	if got, err := TCDF(0, 9); err != nil || !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("TCDF(0) = %v, %v; want 0.5", got, err)
	}
	if _, err := TCDF(math.NaN(), 9); err == nil {
		t.Error("TCDF of NaN should error")
	}
	if _, err := TCDF(1, 0); err == nil {
		t.Error("TCDF with df=0 should error")
	}
}

func TestApproxEq(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-12, 0, false},
		{1, 1 + 1e-12, 1e-9, true},
		{1e9, 1e9 * (1 + 1e-10), 1e-9, true}, // relative scaling above 1
		{0, 1e-12, 1e-9, true},               // absolute near zero
		{math.Inf(1), math.Inf(1), 0, true},
		{math.Inf(1), math.Inf(-1), 1e9, false},
		{math.NaN(), math.NaN(), 1e9, false},
		{math.NaN(), 1, 1e9, false},
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEq(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 {
		t.Error("I_0 should be 0")
	}
	if RegIncBeta(2, 3, 1) != 1 {
		t.Error("I_1 should be 1")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.37, 0.5, 0.99} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	// Empirical check: ~95% of intervals over N(0,1) samples should cover 0.
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	covered := 0
	for i := 0; i < trials; i++ {
		var s Summary
		for j := 0; j < 30; j++ {
			s.Add(rng.NormFloat64())
		}
		iv, err := s.ConfidenceInterval(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(0) {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("95%% CI empirical coverage = %v, want in [0.90, 0.99]", frac)
	}
}

func TestConfidenceIntervalErrors(t *testing.T) {
	var s Summary
	if _, err := s.ConfidenceInterval(0.95); err == nil {
		t.Error("expected error for empty summary")
	}
	s.Add(1)
	if _, err := s.ConfidenceInterval(0.95); err == nil {
		t.Error("expected error for single observation")
	}
	s.Add(2)
	if _, err := s.ConfidenceInterval(1.5); err == nil {
		t.Error("expected error for confidence outside (0,1)")
	}
	if _, err := s.ConfidenceInterval(0.95); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestIntervalAccessors(t *testing.T) {
	iv := Interval{Mean: 10, HalfWidth: 2, Confidence: 0.95, N: 5}
	if iv.Lo() != 8 || iv.Hi() != 12 {
		t.Errorf("Lo/Hi = %v/%v, want 8/12", iv.Lo(), iv.Hi())
	}
	if !iv.Contains(9) || iv.Contains(13) {
		t.Error("Contains wrong")
	}
	if !almostEqual(iv.RelHalfWidth(), 0.2, 1e-12) {
		t.Errorf("RelHalfWidth = %v, want 0.2", iv.RelHalfWidth())
	}
	zero := Interval{}
	if !math.IsInf(zero.RelHalfWidth(), 1) {
		t.Error("RelHalfWidth of zero mean should be +Inf")
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{9, 1, 3, 7, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9},
	}
	for _, c := range cases {
		got, err := Quantile(data, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// input must not be modified
	if data[0] != 9 {
		t.Error("Quantile modified its input")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Quantile(data, -0.1); err == nil {
		t.Error("expected error for q<0")
	}
	if got, err := Quantile([]float64{4}, 0.9); err != nil || got != 4 {
		t.Errorf("single-element quantile = %v, %v", got, err)
	}
}
