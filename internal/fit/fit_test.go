package fit

import (
	"math"
	"testing"

	"snoopmva/internal/mva"
	"snoopmva/internal/trace"
	"snoopmva/internal/workload"
)

func makeTrace(t *testing.T, n, refs int, w workload.Params, seed uint64) []trace.Ref {
	t.Helper()
	g, err := trace.NewGenerator(trace.GeneratorConfig{N: n, Workload: w, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Ref, 0, refs)
	for i := 0; i < refs; i++ {
		out = append(out, g.Next(i%n))
	}
	return out
}

func TestValidation(t *testing.T) {
	if _, err := Fit(nil, Config{N: 2}); err == nil {
		t.Error("empty trace accepted")
	}
	refs := []trace.Ref{{Proc: 0}}
	if _, err := Fit(refs, Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Fit(refs, Config{N: 2, Tau: -1}); err == nil {
		t.Error("negative tau accepted")
	}
	// Reference outside N.
	bad := []trace.Ref{{Proc: 9}}
	if _, err := Fit(bad, Config{N: 2, Warmup: -1}); err == nil {
		t.Error("out-of-range processor accepted")
	}
	badClass := []trace.Ref{{Proc: 0, Class: workload.Class(7)}}
	if _, err := Fit(badClass, Config{N: 1, Warmup: -1}); err == nil {
		t.Error("invalid class accepted")
	}
	// All references consumed by warmup.
	small := []trace.Ref{{Proc: 0}, {Proc: 0}}
	if _, err := Fit(small, Config{N: 1, Warmup: 10}); err == nil {
		t.Error("warmup-swallowed trace accepted")
	}
}

// Round trip: generate a trace from known parameters, fit, and compare the
// recovered parameters against the generator targets.
func TestRoundTripRecoversParameters(t *testing.T) {
	target := workload.AppendixA(workload.Sharing5)
	const n = 4
	refs := makeTrace(t, n, 400000, target, 7)
	est, err := Fit(refs, Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	got := est.Params
	check := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.4f, want %.4f ± %.3f", name, got, want, tol)
		}
	}
	check("p_private", got.PPrivate, target.PPrivate, 0.01)
	check("p_sro", got.PSro, target.PSro, 0.005)
	check("p_sw", got.PSw, target.PSw, 0.005)
	check("r_private", got.RPrivate, target.RPrivate, 0.01)
	check("r_sw", got.RSw, target.RSw, 0.03)
	// Hit rates: the shadow capacity matches the generator working set,
	// so recovered rates should track the targets closely.
	check("h_private", got.HPrivate, target.HPrivate, 0.03)
	check("h_sro", got.HSro, target.HSro, 0.03)
	check("h_sw", got.HSw, target.HSw, 0.05)
	// Tau passes through.
	if got.Tau != 2.5 {
		t.Errorf("tau = %v", got.Tau)
	}
	// Derived fractions live in [0,1] and the estimate is valid.
	if err := got.Validate(); err != nil {
		t.Errorf("fitted parameters invalid: %v", err)
	}
	// Sample-size bookkeeping.
	if est.Counts.Refs == [3]int64{} || est.Counts.Refs[workload.Private] <= est.Counts.Refs[workload.SW] {
		t.Errorf("bookkeeping wrong: %+v", est)
	}
}

// The measurement loop the paper's conclusion asks for: fitted parameters
// fed to the MVA give nearly the same predictions as the true parameters.
func TestFittedParametersPredictLikeTruth(t *testing.T) {
	target := workload.AppendixA(workload.Sharing5)
	const n = 4
	refs := makeTrace(t, n, 400000, target, 21)
	est, err := Fit(refs, Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []int{4, 10, 20} {
		truth, err := (mva.Model{Workload: target, RawParams: true}).Solve(sys, mva.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fitted, err := (mva.Model{Workload: est.Params, RawParams: true}).Solve(sys, mva.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(fitted.Speedup-truth.Speedup) / truth.Speedup
		if rel > 0.15 {
			t.Errorf("N=%d: fitted-parameter speedup %.3f vs truth %.3f (rel %.1f%%)",
				sys, fitted.Speedup, truth.Speedup, rel*100)
		}
	}
}

func TestDirtyTracking(t *testing.T) {
	// Hand-built trace on one processor, private class: read misses fill
	// the private shadow cache behind block 1 until block 1 is evicted.
	refs := []trace.Ref{
		{Proc: 0, Block: 1, Write: true}, // miss, insert dirty
		{Proc: 0, Block: 1, Write: true}, // write hit, already dirty
	}
	for b := uint32(2); b <= workload.PrivCapacity+1; b++ {
		refs = append(refs, trace.Ref{Proc: 0, Block: b}) // miss; the last evicts 1 (dirty)
	}
	refs = append(refs, trace.Ref{Proc: 0, Block: 2, Write: true}) // write hit, clean
	est, err := Fit(refs, Config{N: 1, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Counted refs: all but the first (warmup).
	if got := est.Counts.Refs[workload.Private]; got != int64(len(refs)-1) {
		t.Fatalf("refs = %d", got)
	}
	// amod_private: write hits = 2 (blocks 1 and 2); dirty on arrival = 1.
	if got := est.Params.AmodPrivate; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("amod_private = %v, want 0.5", got)
	}
	// rep_p: one eviction, dirty victim.
	if est.Counts.Evictions[0] != 1 || est.Params.RepP != 1 {
		t.Errorf("evictions = %d, rep_p = %v", est.Counts.Evictions[0], est.Params.RepP)
	}
}

func TestCsupplyTracking(t *testing.T) {
	// Two processors touching the same sw block: the second one's miss
	// finds a (dirty) holder.
	refs := []trace.Ref{
		{Proc: 0, Class: workload.SW, Block: 5, Write: true},
		{Proc: 1, Class: workload.SW, Block: 5, Write: false},
		{Proc: 1, Class: workload.SW, Block: 6, Write: false}, // no holder
	}
	est, err := Fit(refs, Config{N: 2, Warmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Counts.Misses[workload.SW] != 3 {
		t.Fatalf("sw misses = %d", est.Counts.Misses[workload.SW])
	}
	// One of the three sw misses (proc 1's re-reference of block 5) had a
	// holder => csupply_sw = 1/3.
	if got := est.Params.CsupplySw; math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("csupply_sw = %v, want 1/3", got)
	}
	// That holder was dirty => wb_csupply = 1.
	if got := est.Params.WbCsupply; got != 1 {
		t.Errorf("wb_csupply = %v, want 1", got)
	}
}

func TestShadowLRUOrder(t *testing.T) {
	s := shadow{cap: 2}
	s.insert(1, false)
	s.insert(2, false)
	// Touch 1 so 2 becomes LRU.
	if hit, _ := s.lookup(1, false); !hit {
		t.Fatal("expected hit")
	}
	evicted, dirty := s.insert(3, false)
	if !evicted || dirty {
		t.Fatalf("evicted=%v dirty=%v", evicted, dirty)
	}
	// 2 must be gone, 1 must remain.
	if h, _ := s.holds(2); h {
		t.Error("LRU victim not evicted")
	}
	if h, _ := s.holds(1); !h {
		t.Error("recently used block evicted")
	}
}
