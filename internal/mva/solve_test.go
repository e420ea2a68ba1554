package mva

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func baseModel() Model {
	return Model{Workload: workload.AppendixA(workload.Sharing5)}
}

func TestSingleProcessorNoContention(t *testing.T) {
	m := baseModel()
	res, err := m.Solve(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WBus != 0 || res.QBus != 0 || res.WMem != 0 {
		t.Errorf("N=1 should have zero waits: wbus=%v q=%v wmem=%v", res.WBus, res.QBus, res.WMem)
	}
	if res.NInterference != 0 || res.RLocal != 0 {
		t.Errorf("N=1 should have no cache interference: %+v", res)
	}
	// Closed form: R = τ + T_supply + p_bc·T_write + p_rr·t_read.
	d, err := m.Derive()
	if err != nil {
		t.Fatal(err)
	}
	want := 2.5 + 1 + d.PBc*1 + d.PRr*d.TRead
	if !approx(res.R, want, 1e-9) {
		t.Errorf("R = %v, want %v", res.R, want)
	}
	if !approx(res.Speedup, 3.5/want, 1e-9) {
		t.Errorf("speedup = %v, want %v", res.Speedup, 3.5/want)
	}
}

func TestSolveErrors(t *testing.T) {
	m := baseModel()
	if _, err := m.Solve(0, Options{}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := m.Solve(4, Options{Damping: 1.5}); err == nil {
		t.Error("bad damping accepted")
	}
	bad := m
	bad.Workload.Tau = -1
	if _, err := bad.Solve(4, Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
	badMods := Model{Workload: workload.AppendixA(workload.Sharing5), Mods: protocol.Mods(protocol.Mod4)}
	if _, err := badMods.Solve(4, Options{}); err == nil {
		t.Error("impractical mod set accepted")
	}
}

func TestNoConvergenceError(t *testing.T) {
	_, err := baseModel().Solve(10, Options{MaxIter: 1, Tol: 1e-15})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("expected ErrNoConvergence, got %v", err)
	}
}

// TestSolvePreCanceled asserts the fixed point checks its context before
// the first iterate: a solve converges in about a dozen iterations, far
// inside the periodic check interval, so a canceled context must still
// fail it rather than let it succeed.
func TestSolvePreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := baseModel()
	if _, err := m.SolveContext(ctx, 10, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveContext: err = %v, want context.Canceled", err)
	}
}

func TestDampingReachesSameFixedPoint(t *testing.T) {
	plain, err := baseModel().Solve(12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	damped, err := baseModel().Solve(12, Options{Damping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(plain.Speedup, damped.Speedup, 1e-5) {
		t.Errorf("damped fixed point differs: %v vs %v", damped.Speedup, plain.Speedup)
	}
}

func TestSpeedupMonotoneInN(t *testing.T) {
	m := baseModel()
	prev := 0.0
	for n := 1; n <= 40; n++ {
		res, err := m.Solve(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Speedup < prev-1e-6 {
			t.Fatalf("speedup not monotone at N=%d: %v < %v", n, res.Speedup, prev)
		}
		prev = res.Speedup
	}
}

func TestAsymptoticSpeedupBrackets(t *testing.T) {
	m := baseModel()
	lo, hi, err := m.AsymptoticSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Errorf("lo %v > hi %v", lo, hi)
	}
	res, err := m.Solve(200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The approximate MVA can overshoot the saturation bound by ~1-2%
	// before settling — visible in the paper's own Table 4.1(b), where
	// the N=20 speedup (7.09) exceeds the N=100 value (7.04).
	if res.Speedup > hi*1.02 {
		t.Errorf("S(200)=%v exceeds asymptotic bound %v beyond the known overshoot", res.Speedup, hi)
	}
	if res.Speedup < lo*0.85 {
		t.Errorf("S(200)=%v far below saturation bracket [%v, %v]", res.Speedup, lo, hi)
	}
	// Zero-traffic workload: infinite asymptote.
	perfect := workload.AppendixA(workload.Sharing1)
	perfect.HPrivate, perfect.HSro, perfect.HSw = 1, 1, 1
	perfect.RPrivate = 1
	mInf := Model{Workload: perfect, RawParams: true}
	lo, hi, err = mInf.AsymptoticSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lo, 1) || !math.IsInf(hi, 1) {
		t.Errorf("perfect cache asymptote = %v, %v; want +Inf", lo, hi)
	}
}

func TestAsymptoticSpeedupError(t *testing.T) {
	bad := baseModel()
	bad.Workload.HSw = 2
	if _, _, err := bad.AsymptoticSpeedup(); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestResultString(t *testing.T) {
	res, _ := baseModel().Solve(4, Options{})
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestModelDeriveAppliesAdjustments(t *testing.T) {
	m := Model{Workload: workload.AppendixA(workload.Sharing5), Mods: protocol.Mods(protocol.Mod1)}
	d, err := m.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d.Params.RepP, 0.3, 1e-12) {
		t.Errorf("ForProtocol not applied: rep_p = %v", d.Params.RepP)
	}
	raw := m
	raw.RawParams = true
	d2, err := raw.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d2.Params.RepP, 0.2, 1e-12) {
		t.Errorf("RawParams should suppress adjustment: rep_p = %v", d2.Params.RepP)
	}
}

func TestCustomTimingUsed(t *testing.T) {
	fast := baseModel()
	fast.Timing = workload.DefaultTiming()
	fast.Timing.DMem = 0.5
	slow := baseModel()
	slow.Timing = workload.DefaultTiming()
	slow.Timing.DMem = 10
	f, err := fast.Solve(10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := slow.Solve(10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Speedup <= s.Speedup {
		t.Errorf("faster memory should raise speedup: %v vs %v", f.Speedup, s.Speedup)
	}
}

// --- Ablations ---

func TestAblationCacheInterference(t *testing.T) {
	m := Model{Workload: workload.AppendixA(workload.Sharing20)}
	with, err := m.Solve(10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := m.Solve(10, Options{NoCacheInterference: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.Speedup < with.Speedup {
		t.Errorf("removing cache interference should not lower speedup: %v vs %v",
			without.Speedup, with.Speedup)
	}
	if without.RLocal != 0 || without.NInterference != 0 {
		t.Errorf("ablation left interference terms: %+v", without)
	}
	if with.RLocal <= 0 {
		t.Errorf("20%% sharing at N=10 should show cache interference, RLocal=%v", with.RLocal)
	}
}

func TestAblationMemoryInterference(t *testing.T) {
	m := baseModel()
	with, _ := m.Solve(10, Options{})
	without, err := m.Solve(10, Options{NoMemoryInterference: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.WMem != 0 || without.UMem != 0 {
		t.Errorf("ablation left memory terms: %+v", without)
	}
	if without.Speedup < with.Speedup {
		t.Errorf("removing memory interference should not lower speedup")
	}
}

func TestAblationResidualLife(t *testing.T) {
	m := baseModel()
	with, _ := m.Solve(10, Options{})
	without, err := m.Solve(10, Options{NoResidualLife: true})
	if err != nil {
		t.Fatal(err)
	}
	// Using the full access time as "residual" overstates waiting.
	if without.WBus <= with.WBus {
		t.Errorf("NoResidualLife should increase bus wait: %v vs %v", without.WBus, with.WBus)
	}
	if without.TResBus != without.TBus {
		t.Errorf("NoResidualLife must equate t_res and t_bus: %v vs %v", without.TResBus, without.TBus)
	}
}

func TestAblationExponentialBus(t *testing.T) {
	m := baseModel()
	det, _ := m.Solve(10, Options{})
	exp, err := m.Solve(10, Options{ExponentialBus: true})
	if err != nil {
		t.Fatal(err)
	}
	// Exponential access times double the residual life of the request in
	// service, so waits rise and speedup falls — the paper's advantage
	// over the [GrMi87] exponential model.
	if exp.WBus <= det.WBus {
		t.Errorf("exponential bus should increase wait: %v vs %v", exp.WBus, det.WBus)
	}
	if exp.Speedup >= det.Speedup {
		t.Errorf("exponential bus should lower speedup: %v vs %v", exp.Speedup, det.Speedup)
	}
}

func TestAblationArrivalCorrection(t *testing.T) {
	m := baseModel()
	with, _ := m.Solve(10, Options{})
	without, err := m.Solve(10, Options{NoArrivalCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	// Seeing all N customers (including oneself) inflates queueing.
	if without.Speedup >= with.Speedup {
		t.Errorf("NoArrivalCorrection should lower speedup: %v vs %v", without.Speedup, with.Speedup)
	}
}

// Property: for random valid workloads and any practical protocol, the
// solution is finite, speedup ∈ (0, N], utilizations ∈ [0,1], and R at
// least τ + T_supply.
func TestSolveInvariantsQuick(t *testing.T) {
	mods := protocol.AllModSets()
	f := func(sh, msIdx, nRaw uint8, h1000, sw1000 uint16) bool {
		p := workload.AppendixA(workload.Sharings()[int(sh)%3])
		p.HSw = float64(h1000%1001) / 1000
		sw := float64(sw1000%250) / 1000
		p.PSw = sw
		p.PPrivate = 1 - p.PSro - sw
		if p.Validate() != nil {
			return true
		}
		ms := mods[int(msIdx)%len(mods)]
		n := 1 + int(nRaw%64)
		res, err := (Model{Workload: p, Mods: ms}).Solve(n, Options{})
		if err != nil {
			return false
		}
		if math.IsNaN(res.R) || math.IsInf(res.R, 0) {
			return false
		}
		if res.Speedup <= 0 || res.Speedup > float64(n)+1e-9 {
			return false
		}
		if res.UBus < 0 || res.UBus > 1 || res.UMem < 0 || res.UMem > 1 {
			return false
		}
		return res.R >= 2.5+1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
