package snoopmva

import (
	"context"
	"errors"
	"math"
	"testing"

	"snoopmva/internal/cachesim"
)

// Adversarial workloads: every entry must come back as either a typed
// error or a finite result — never NaN, never a panic escaping the API.
func adversarialWorkloads() map[string]Workload {
	zeroHits := AppendixA(Sharing5)
	zeroHits.HPrivate, zeroHits.HSro, zeroHits.HSw = 0, 0, 0

	badPartition := AppendixA(Sharing5)
	badPartition.PSw = 0.9 // streams now sum to 1.85

	negativeProb := AppendixA(Sharing5)
	negativeProb.CsupplySw = -0.25

	nanTau := AppendixA(Sharing5)
	nanTau.Tau = math.NaN()

	infTau := AppendixA(Sharing5)
	infTau.Tau = math.Inf(1)

	zeroTau := AppendixA(Sharing5) // back-to-back requests, bus saturated
	zeroTau.Tau = 0

	allShared := AppendixA(Sharing20)
	allShared.PPrivate, allShared.PSro, allShared.PSw = 0, 0.5, 0.5
	allShared.HSw = 0.05

	return map[string]Workload{
		"zero hit rates":      zeroHits,
		"partition sums to 2": badPartition,
		"negative csupply":    negativeProb,
		"NaN tau":             nanTau,
		"Inf tau":             infTau,
		"zero tau":            zeroTau,
		"all shared, low hit": allShared,
		"stress workload":     StressWorkload(),
	}
}

func checkFinite(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("%s = %v, want finite", name, v)
	}
}

func TestSolveAdversarialWorkloads(t *testing.T) {
	for name, w := range adversarialWorkloads() {
		w := w
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 10, 1000} {
				r, err := Solve(WriteOnce(), w, n)
				if err != nil {
					// Failure is acceptable only as a classified error.
					if !errors.Is(err, ErrInvalidInput) && !errors.Is(err, ErrDiverged) &&
						!errors.Is(err, ErrNoConvergence) {
						t.Errorf("N=%d: untyped error %v", n, err)
					}
					continue
				}
				checkFinite(t, "Speedup", r.Speedup)
				checkFinite(t, "R", r.R)
				checkFinite(t, "BusUtilization", r.BusUtilization)
				checkFinite(t, "MemUtilization", r.MemUtilization)
				checkFinite(t, "BusWait", r.BusWait)
				if r.R <= 0 {
					t.Errorf("N=%d: R = %v, want > 0", n, r.R)
				}
				if r.BusUtilization < 0 || r.BusUtilization > 1+1e-9 {
					t.Errorf("N=%d: bus utilization %v outside [0,1]", n, r.BusUtilization)
				}
			}
		})
	}
}

func TestSimulateAdversarialWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator sweep in -short mode")
	}
	opts := SimOptions{Seed: 3, WarmupCycles: -1, MeasureCycles: 20000}
	for name, w := range adversarialWorkloads() {
		w := w
		t.Run(name, func(t *testing.T) {
			r, err := SimulateContext(context.Background(), WriteOnce(), w, 4, opts)
			if err != nil {
				if !errors.Is(err, ErrInvalidInput) {
					t.Errorf("untyped error %v", err)
				}
				return
			}
			checkFinite(t, "Speedup", r.Speedup)
			checkFinite(t, "R", r.R)
			checkFinite(t, "BusUtilization", r.BusUtilization)
			checkFinite(t, "BusWait", r.BusWait)
			// The per-class response times are the simulator's own
			// measures, outside the public record.
			cr, err := cachesim.RunContext(context.Background(), cachesim.Config{
				N: 4, Protocol: WriteOnce().inner, Workload: w.internal(), RawParams: w.FixedParams,
				Seed: opts.Seed, WarmupCycles: opts.WarmupCycles, MeasureCycles: opts.MeasureCycles,
			})
			if err != nil {
				t.Fatalf("the simulator accepted the workload through SimulateContext but not directly: %v", err)
			}
			for _, v := range cr.MeanResponse {
				checkFinite(t, "MeanResponse", v)
			}
			for _, v := range cr.P95Response {
				checkFinite(t, "P95Response", v)
			}
		})
	}
}

// The saturated extreme: N=1000 processors on one bus. The MVA model must
// produce a finite, sane answer (bus-bound: speedup ≈ sustainable customers).
func TestSolveSaturatedN1000(t *testing.T) {
	for _, mk := range []struct {
		name string
		p    Protocol
	}{
		{"Write-Once", WriteOnce()},
		{"Illinois", Illinois()},
		{"Write-Through", WriteThrough()},
	} {
		t.Run(mk.name, func(t *testing.T) {
			r, err := Solve(mk.p, AppendixA(Sharing20), 1000)
			if err != nil {
				t.Fatal(err)
			}
			checkFinite(t, "Speedup", r.Speedup)
			checkFinite(t, "R", r.R)
			if r.Speedup <= 0 || r.Speedup > 1000 {
				t.Errorf("Speedup = %v, want in (0, 1000]", r.Speedup)
			}
			if r.BusUtilization < 0.9 {
				t.Errorf("bus utilization %v at N=1000, expected saturation", r.BusUtilization)
			}
		})
	}
}

// Simulator parameter edge cases must be rejected as invalid input, not
// panic and not spin forever.
func TestSimulateRejectsBadOptions(t *testing.T) {
	w := AppendixA(Sharing5)
	cases := map[string]SimOptions{
		"negative measure cycles": {MeasureCycles: -5},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := SimulateContext(context.Background(), WriteOnce(), w, 4, opts); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("err = %v, want ErrInvalidInput", err)
			}
		})
	}
	t.Run("zero processors", func(t *testing.T) {
		if _, err := SimulateContext(context.Background(), WriteOnce(), w, 0, SimOptions{MeasureCycles: 1000}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
}
