package snoopmva

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/mva"
)

// Acceptance: canceling mid-run stops the GTPN solve (N=10, 44341 states,
// ~1.5s of reachability + embedded-chain work on a 2-CPU machine) within
// 100ms of the cancel.
func TestSolveDetailedContextCancelsWithin100ms(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		_, err := SolveDetailedContext(ctx, WriteOnce(), AppendixA(Sharing5), 10)
		done <- outcome{err, time.Since(start)}
	}()

	// Let the solve get well into its work, then cancel.
	time.Sleep(100 * time.Millisecond)
	cancel()
	canceledAt := time.Now()

	select {
	case o := <-done:
		if time.Since(canceledAt) > 100*time.Millisecond {
			t.Errorf("solve returned %v after cancel, want <= 100ms", time.Since(canceledAt))
		}
		if !errors.Is(o.err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled (solve ran %v)", o.err, o.elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("solve did not return within 2s of cancel")
	}
}

// Acceptance: canceling stops a >= 10M-cycle simulation within 100ms.
func TestSimulateContextCancelsWithin100ms(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := SimulateContext(ctx, WriteOnce(), AppendixA(Sharing5), 16,
			SimOptions{MeasureCycles: 10_000_000})
		done <- err
	}()

	time.Sleep(100 * time.Millisecond)
	cancel()
	canceledAt := time.Now()

	select {
	case err := <-done:
		if time.Since(canceledAt) > 100*time.Millisecond {
			t.Errorf("simulation returned %v after cancel, want <= 100ms", time.Since(canceledAt))
		}
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("simulation did not return within 2s of cancel")
	}
}

func TestSolveContextHonorsPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// N large enough that the fixed point passes at least one 64-iteration
	// cancellation checkpoint before converging is not guaranteed, so use a
	// stall hook to hold it in the loop.
	restore := faultinject.Activate(&faultinject.Set{
		MVAStall: func(int) bool { return true },
	})
	defer restore()
	_, err := SolveWithContext(ctx, WriteOnce(), AppendixA(Sharing5), Timing{}, 10, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// Acceptance: under an injected state-explosion fault, SolveBest reports a
// degraded MVA result with the GTPN failure recorded in FallbackReason.
func TestSolveBestDegradesOnStateExplosion(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(states int) bool { return states > 100 },
	})
	defer restore()

	best, err := SolveBest(context.Background(), WriteOnce(), AppendixA(Sharing5), 8,
		Budget{SimCycles: -1}) // skip the simulator rung: GTPN -> MVA directly
	if err != nil {
		t.Fatal(err)
	}
	if best.Method != MethodMVA {
		t.Errorf("Method = %q, want %q", best.Method, MethodMVA)
	}
	if !best.Degraded {
		t.Error("Degraded = false, want true")
	}
	if !strings.Contains(best.FallbackReason, "gtpn") || !strings.Contains(best.FallbackReason, "state") {
		t.Errorf("FallbackReason = %q, want the gtpn state-explosion recorded", best.FallbackReason)
	}
	m, err := Solve(WriteOnce(), AppendixA(Sharing5), 8)
	if err != nil {
		t.Fatal(err)
	}
	if best.N != m.N || best.Speedup != m.Speedup || best.R != m.R || best.BusUtilization != m.BusUtilization {
		t.Errorf("headline %+v is not bitwise the direct Solve %+v", best, m)
	}
}

func TestSolveBestPrefersGTPNWhenItFits(t *testing.T) {
	best, err := SolveBest(context.Background(), WriteOnce(), AppendixA(Sharing5), 3,
		Budget{SimCycles: -1})
	if err != nil {
		t.Fatal(err)
	}
	if best.Method != MethodGTPN || best.Degraded || best.FallbackReason != "" {
		t.Errorf("got method=%q degraded=%v reason=%q, want a clean GTPN result",
			best.Method, best.Degraded, best.FallbackReason)
	}
	g, err := SolveDetailedContext(context.Background(), WriteOnce(), AppendixA(Sharing5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.N != g.N || best.Speedup != g.Speedup || best.R != g.R || best.BusUtilization != g.BusUtilization {
		t.Errorf("headline %+v is not bitwise the direct SolveDetailed %+v", best, g)
	}
}

func TestSolveBestFallsBackToSimulation(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(states int) bool { return states > 100 },
	})
	defer restore()

	best, err := SolveBest(context.Background(), WriteOnce(), AppendixA(Sharing5), 4,
		Budget{SimCycles: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if best.Method != MethodSimulation || !best.Degraded {
		t.Errorf("got method=%q degraded=%v, want degraded simulation", best.Method, best.Degraded)
	}
	sim, err := SimulateContext(context.Background(), WriteOnce(), AppendixA(Sharing5), 4,
		SimOptions{Seed: 7, MeasureCycles: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if best.N != sim.N || best.Speedup != sim.Speedup || best.R != sim.R || best.BusUtilization != sim.BusUtilization {
		t.Errorf("headline %+v is not bitwise the direct simulation %+v", best, sim)
	}
}

// A system too large for the simulator's per-block arrays degrades to the
// MVA instead of allocating terabytes: the simulator rung refuses N above
// its bound before building anything, and the reason names the bound.
func TestSolveBestOversizedSystemDegradesToMVA(t *testing.T) {
	const n = 100000
	best, err := SolveBest(context.Background(), WriteOnce(), AppendixA(Sharing5), n,
		Budget{MaxStates: -1, SimCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if best.Method != MethodMVA || !best.Degraded {
		t.Fatalf("got method=%q degraded=%v, want degraded MVA", best.Method, best.Degraded)
	}
	if r := best.FallbackReason; !strings.HasPrefix(r, "simulation: ") || !strings.Contains(r, "N=100000 outside 1..128") {
		t.Errorf("FallbackReason = %q, want the simulation stage refusing N=100000 outside 1..128", r)
	}
	m, err := Solve(WriteOnce(), AppendixA(Sharing5), n)
	if err != nil {
		t.Fatal(err)
	}
	if best.N != m.N || best.Speedup != m.Speedup || best.R != m.R || best.BusUtilization != m.BusUtilization {
		t.Errorf("headline %+v is not bitwise the direct Solve %+v", best, m)
	}
}

func TestSolveBestInvalidInputDoesNotDegrade(t *testing.T) {
	w := AppendixA(Sharing5)
	w.HPrivate = 2 // out of range
	_, err := SolveBest(context.Background(), WriteOnce(), w, 8, Budget{})
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("err = %v, want ErrInvalidInput", err)
	}
}

func TestSolveBestRejectsNegativeTimeouts(t *testing.T) {
	w := AppendixA(Sharing5)
	if _, err := SolveBest(context.Background(), WriteOnce(), w, 4,
		Budget{GTPNTimeout: -time.Second}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative GTPNTimeout: err = %v, want ErrInvalidInput", err)
	}
	if _, err := SolveBest(context.Background(), WriteOnce(), w, 4,
		Budget{SimTimeout: -time.Nanosecond}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative SimTimeout: err = %v, want ErrInvalidInput", err)
	}
}

// Double degradation: when both the GTPN and the simulator stages fail,
// the MVA result's FallbackReason must name both failed stages, in ladder
// order, so provenance survives two rungs of degradation.
func TestSolveBestDoubleDegradationProvenance(t *testing.T) {
	simFault := errors.New("injected simulator fault")
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(states int) bool { return true },
		SimFault:     func(cycle int64) error { return simFault },
	})
	defer restore()

	best, err := SolveBest(context.Background(), WriteOnce(), AppendixA(Sharing5), 8,
		Budget{SimCycles: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if best.Method != MethodMVA || !best.Degraded {
		t.Fatalf("got method=%q degraded=%v, want degraded MVA", best.Method, best.Degraded)
	}
	reason := best.FallbackReason
	gtpnAt := strings.Index(reason, "gtpn:")
	simAt := strings.Index(reason, "simulation:")
	if gtpnAt < 0 || simAt < 0 {
		t.Fatalf("FallbackReason = %q, want both failed stages named", reason)
	}
	if gtpnAt > simAt {
		t.Errorf("FallbackReason = %q, want gtpn before simulation (ladder order)", reason)
	}
	if !strings.Contains(reason, "state") || !strings.Contains(reason, "injected simulator fault") {
		t.Errorf("FallbackReason = %q, want each stage's cause preserved", reason)
	}
}

func TestSolveBestCanceledContextAbortsLadder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(int) bool { return true },
	})
	defer restore()
	_, err := SolveBest(ctx, WriteOnce(), AppendixA(Sharing5), 8, Budget{})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled (cancel must not degrade)", err)
	}
}

// Taxonomy: each failure mode surfaces as its public sentinel.
func TestErrorTaxonomy(t *testing.T) {
	w := AppendixA(Sharing5)

	t.Run("invalid workload", func(t *testing.T) {
		bad := w
		bad.PSw = 0.5 // partition no longer sums to 1
		if _, err := Solve(WriteOnce(), bad, 8); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
	t.Run("invalid protocol", func(t *testing.T) {
		if _, err := Solve(WithMods(9), w, 8); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
	t.Run("invalid system size", func(t *testing.T) {
		if _, err := Solve(WriteOnce(), w, 0); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
	t.Run("diverged", func(t *testing.T) {
		restore := faultinject.Activate(&faultinject.Set{
			MVAPoison: func(iter int) (float64, bool) { return math.NaN(), iter == 3 },
		})
		defer restore()
		_, err := Solve(WriteOnce(), w, 8)
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("err = %v, want ErrDiverged", err)
		}
		var de *mva.DivergenceError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want a *mva.DivergenceError carrying the iterate", err)
		}
		if de.Iteration != 3 || de.N != 8 {
			t.Errorf("offending iterate = %+v, want iteration 3 at N=8", de)
		}
	})
	t.Run("no convergence", func(t *testing.T) {
		restore := faultinject.Activate(&faultinject.Set{
			MVAStall: func(int) bool { return true },
		})
		defer restore()
		if _, err := Solve(WriteOnce(), w, 8); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("err = %v, want ErrNoConvergence", err)
		}
	})
	t.Run("state explosion", func(t *testing.T) {
		restore := faultinject.Activate(&faultinject.Set{
			PetriExplode: func(states int) bool { return states > 50 },
		})
		defer restore()
		if _, err := SolveDetailedContext(context.Background(), WriteOnce(), w, 4); !errors.Is(err, ErrStateExplosion) {
			t.Errorf("err = %v, want ErrStateExplosion", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := SolveDetailedContext(ctx, WriteOnce(), w, 6); !errors.Is(err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled", err)
		}
	})
}

func TestGuardRecoversPanicsIntoPanicError(t *testing.T) {
	f := func() (err error) {
		defer guard(&err)
		panic("internal invariant violated (test)")
	}
	err := f()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "internal invariant violated (test)" {
		t.Errorf("Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "robustness_test") {
		t.Errorf("Stack does not point at the panic site:\n%s", pe.Stack)
	}
}

// TestSolveBestWrapsMVAPanicWithReasons: a panic in the MVA rung after
// the GTPN rung gave up comes back as a *PanicError wrapped with the
// GTPN reason, not as a bare panic that loses the ladder's history.
func TestSolveBestWrapsMVAPanicWithReasons(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(states int) bool { return states > 50 },
		MVAEnter:     func(int) { panic("mva invariant violated (test)") },
	})
	defer restore()
	_, err := SolveBest(context.Background(), WriteOnce(), AppendixA(Sharing5), 4, Budget{SimCycles: -1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want a wrapped *PanicError", err, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "exhausted all models (gtpn: ") || !strings.Contains(msg, "mva: snoopmva: internal panic") {
		t.Errorf("err = %q, want the gtpn reason and the mva panic", msg)
	}
}

func TestClassifyPassesUnknownAndClassifiedThrough(t *testing.T) {
	plain := errors.New("some downstream failure")
	if got := classify(plain); got != plain {
		t.Errorf("unknown error rewrapped: %v", got)
	}
	once := classify(context.Canceled)
	if !errors.Is(once, ErrCanceled) {
		t.Fatalf("classify(context.Canceled) = %v", once)
	}
	if again := classify(once); again != once {
		t.Errorf("already-classified error rewrapped: %v", again)
	}
	if classify(nil) != nil {
		t.Error("classify(nil) != nil")
	}
}

// The context-less entry points still work unchanged (delegation check).
func TestBackgroundDelegationUnchanged(t *testing.T) {
	r1, err := Solve(Illinois(), AppendixA(Sharing20), 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveWithContext(context.Background(), Illinois(), AppendixA(Sharing20), Timing{}, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("Solve %+v != SolveWithContext %+v", r1, r2)
	}
}
