package sensitivity

import (
	"math"
	"strings"
	"testing"

	"snoopmva/internal/mva"
	"snoopmva/internal/workload"
)

func study() Study {
	return Study{
		Model:  mva.Model{Workload: workload.AppendixA(workload.Sharing5)},
		N:      10,
		Metric: Speedup,
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	w := workload.AppendixA(workload.Sharing5)
	for _, p := range Params() {
		v, err := Get(w, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		w2, err := Set(w, p, v)
		if err != nil {
			t.Fatalf("%s: set same value: %v", p, err)
		}
		v2, err := Get(w2, p)
		if err != nil || v2 != v {
			t.Errorf("%s: round trip %v -> %v", p, v, v2)
		}
	}
	if _, err := Get(w, Param("bogus")); err == nil {
		t.Error("unknown param accepted by Get")
	}
	if _, err := Set(w, Param("bogus"), 0.5); err == nil {
		t.Error("unknown param accepted by Set")
	}
}

func TestSetPreservesStreamPartition(t *testing.T) {
	w := workload.AppendixA(workload.Sharing5)
	w2, err := Set(w, PSw, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if sum := w2.PPrivate + w2.PSro + w2.PSw; math.Abs(sum-1) > 1e-12 {
		t.Errorf("stream partition broken: %v", sum)
	}
	if w2.PSw != 0.10 {
		t.Errorf("PSw = %v", w2.PSw)
	}
	// Pushing PSw beyond what PPrivate can absorb must fail validation.
	if _, err := Set(w, PSw, 0.99); err == nil {
		t.Error("invalid stream partition accepted")
	}
}

func TestSetRejectsOutOfRange(t *testing.T) {
	w := workload.AppendixA(workload.Sharing5)
	if _, err := Set(w, HSw, 1.5); err == nil {
		t.Error("h_sw > 1 accepted")
	}
	if _, err := Set(w, Tau, -1); err == nil {
		t.Error("negative tau accepted")
	}
}

func TestMetricString(t *testing.T) {
	if Speedup.String() != "speedup" || BusUtilization.String() != "bus-utilization" ||
		ResponseTime.String() != "response-time" {
		t.Error("metric strings wrong")
	}
	if Metric(9).String() != "Metric(9)" {
		t.Error("unknown metric string wrong")
	}
}

func TestSweepParam(t *testing.T) {
	s := study()
	pts, skipped, err := s.SweepParam(HSw, []float64{0.3, 0.5, 0.7, 0.9, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the 1.5 value)", skipped)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Higher shared-writable hit rate means fewer misses: speedup rises.
	for i := 1; i < len(pts); i++ {
		if pts[i].Metric < pts[i-1].Metric {
			t.Errorf("speedup should rise with h_sw: %+v", pts)
		}
	}
}

// An unknown parameter is an error, not a sweep whose every value is
// skipped as invalid; it is reported even when there is no value to try.
func TestSweepParamRejectsUnknownParam(t *testing.T) {
	s := study()
	for _, values := range [][]float64{{1}, {0.3, 0.7}, nil} {
		pts, skipped, err := s.SweepParam("nonesuch", values)
		if err == nil || !strings.Contains(err.Error(), "nonesuch") {
			t.Errorf("values %v: err = %v, want an error naming nonesuch", values, err)
		}
		if pts != nil || skipped != 0 {
			t.Errorf("values %v: %d points, %d skipped; want none evaluated", values, len(pts), skipped)
		}
	}
}

func TestSweepTauLowersUtilization(t *testing.T) {
	s := study()
	s.Metric = BusUtilization
	pts, _, err := s.SweepParam(Tau, []float64{2.5, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Metric >= pts[i-1].Metric {
			t.Errorf("bus utilization should fall as think time grows: %+v", pts)
		}
	}
}

func TestElasticities(t *testing.T) {
	s := study()
	es, err := s.Elasticities(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(Params()) {
		t.Fatalf("got %d elasticities, want %d", len(es), len(Params()))
	}
	// Ranked by |value| descending among defined entries, which all
	// precede the undefined ones.
	prev := math.Inf(1)
	sawUndefined := false
	byName := map[Param]Elasticity{}
	for _, e := range es {
		byName[e.Param] = e
		if e.OK {
			if sawUndefined {
				t.Errorf("defined entry %v sorted after an undefined one", e)
			}
			if math.Abs(e.Value) > prev+1e-12 {
				t.Errorf("not ranked: %v after %v", e, prev)
			}
			prev = math.Abs(e.Value)
		} else {
			sawUndefined = true
			if e.Value != 0 {
				t.Errorf("undefined elasticity %v carries non-zero value", e)
			}
		}
	}
	// Physics checks: higher hit rates help (positive elasticity of
	// speedup), higher replacement probabilities hurt.
	if e := byName[HPrivate]; !(e.Value > 0) {
		t.Errorf("h_private elasticity = %v, want > 0", e.Value)
	}
	if e := byName[RepP]; !(e.Value < 0) {
		t.Errorf("rep_p elasticity = %v, want < 0", e.Value)
	}
	// The private hit rate must dominate everything at 5% sharing.
	if es[0].Param != HPrivate {
		t.Errorf("dominant parameter = %s, expected h_private", es[0].Param)
	}
	// Base values recorded.
	if byName[HSw].Base != 0.5 || byName[HSw].BaseMetric <= 0 {
		t.Errorf("base bookkeeping wrong: %+v", byName[HSw])
	}
}

func TestTornado(t *testing.T) {
	s := study()
	bars, err := s.Tornado(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) == 0 {
		t.Fatal("no tornado bars")
	}
	for i := 1; i < len(bars); i++ {
		if bars[i].AbsoluteSpan > bars[i-1].AbsoluteSpan+1e-12 {
			t.Errorf("bars not ranked by span")
		}
	}
	for _, b := range bars {
		if b.Lo >= b.Hi {
			t.Errorf("%s: degenerate range [%v, %v]", b.Param, b.Lo, b.Hi)
		}
		if math.Abs(b.MetricAtHi-b.MetricAtLo) != b.AbsoluteSpan {
			t.Errorf("%s: span inconsistent", b.Param)
		}
	}
	if bars[0].Param != HPrivate {
		t.Errorf("widest bar = %s, expected h_private", bars[0].Param)
	}
	// Parameters clamped at 1.0: h_private ±25% would exceed 1, so its
	// high end must have been clamped.
	for _, b := range bars {
		if b.Param == HPrivate && b.Hi > 1 {
			t.Errorf("h_private hi %v not clamped", b.Hi)
		}
	}
}

// A range wider than the base value pushes every low end below zero; the
// low end clamps to 0 (which every parameter accepts), so no parameter
// drops out of the summary.
func TestTornadoClampsNegativeLowEndToZero(t *testing.T) {
	const rel = 1.5
	s := study()
	bars, err := s.Tornado(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != len(Params()) {
		t.Fatalf("got %d bars, want one for each of the %d parameters", len(bars), len(Params()))
	}
	for _, b := range bars {
		v, err := Get(s.Model.Workload, b.Param)
		if err != nil {
			t.Fatal(err)
		}
		if v*(1-rel) < 0 && b.Lo != 0 {
			t.Errorf("%s: low end %v, want 0 (base %v)", b.Param, b.Lo, v)
		}
	}
}

func TestStudyPropagatesSolverErrors(t *testing.T) {
	s := study()
	s.N = 0 // invalid
	if _, err := s.Elasticities(0.02); err == nil {
		t.Error("solver error not propagated")
	}
	if _, err := s.Tornado(0.25); err == nil {
		t.Error("solver error not propagated")
	}
	if _, _, err := s.SweepParam(HSw, []float64{0.5}); err == nil {
		t.Error("solver error not propagated")
	}
}

func TestUnknownMetric(t *testing.T) {
	s := study()
	s.Metric = Metric(42)
	if _, _, err := s.SweepParam(HSw, []float64{0.5}); err == nil {
		t.Error("unknown metric accepted")
	}
}
