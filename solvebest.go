package snoopmva

import (
	"context"
	"fmt"
	"strings"
	"time"

	"snoopmva/internal/gtpnmodel"
	"snoopmva/internal/mva"
	"snoopmva/internal/petri"
)

// Method identifies which model produced a Result.
type Method string

// The three models, in decreasing fidelity (and decreasing cost to fail).
const (
	MethodGTPN       Method = "gtpn"
	MethodSimulation Method = "simulation"
	MethodMVA        Method = "mva"
)

// Budget bounds the expensive stages of SolveBest's degradation ladder.
// The zero value uses the defaults noted on each field.
type Budget struct {
	// MaxStates bounds the GTPN reachability graph (0 means 200000;
	// negative skips the GTPN stage entirely).
	MaxStates int
	// GTPNTimeout is the wall-clock budget of the GTPN stage (0 means no
	// deadline beyond the caller's ctx).
	GTPNTimeout time.Duration
	// SimCycles caps the simulator's measurement window, which ends early
	// once the speedup is known to ±1 % (0 means the simulator default of
	// 300000; negative skips the simulator stage).
	SimCycles int64
	// SimTimeout is the wall-clock budget of the simulator stage (0 means
	// no deadline beyond the caller's ctx).
	SimTimeout time.Duration
	// Seed drives the simulator stage (0 means 1).
	Seed uint64
}

// SolveBest answers "the most accurate speedup estimate you can give me
// within this budget" by walking the repository's three models in
// decreasing fidelity: the exact GTPN solution within its state and time
// budget, then the cycle-level simulator within its cycle budget, then the
// (always-cheap) MVA model. A stage failure degrades to the next rung and
// is recorded in FallbackReason. The answer is the winning rung's own
// Result, with its provenance set. Cancellation of ctx aborts the whole
// ladder with ErrCanceled instead of degrading, and invalid input fails
// immediately with ErrInvalidInput since no model could accept it.
func SolveBest(ctx context.Context, p Protocol, w Workload, n int, b Budget) (best Result, err error) {
	defer guard(&err)
	defer func() {
		if err == nil {
			recordSolveBest(best)
		}
	}()
	// Validate once up front: an input no model accepts must not burn the
	// GTPN and simulator budgets before failing. The MVA rung solves this
	// model as built.
	m, err := model(p, w, Timing{})
	if err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("snoopmva: system size %d < 1: %w", n, ErrInvalidInput)
	}
	// A negative timeout is a caller bug, not a request for "no deadline":
	// reject it instead of silently running unbounded.
	if b.GTPNTimeout < 0 {
		return Result{}, fmt.Errorf("snoopmva: negative GTPNTimeout %v: %w", b.GTPNTimeout, ErrInvalidInput)
	}
	if b.SimTimeout < 0 {
		return Result{}, fmt.Errorf("snoopmva: negative SimTimeout %v: %w", b.SimTimeout, ErrInvalidInput)
	}

	var reasons []string
	abandon := func(stage string, err error) error {
		// Caller cancellation is not a degradation: once ctx has fired,
		// no later rung is allowed to run either. The cancellation sentinel
		// leads so errors.Is(err, ErrCanceled) holds even when the stage
		// itself failed for an unrelated reason first.
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("snoopmva: SolveBest %s stage: %w (stage error: %v)", stage, classify(cerr), err)
		}
		reasons = append(reasons, fmt.Sprintf("%s: %v", stage, err))
		return nil
	}

	if b.MaxStates >= 0 {
		gctx, cancel := boundedCtx(ctx, b.GTPNTimeout)
		g, gerr := solveDetailedBudgeted(gctx, p, w, n, b.MaxStates)
		cancel()
		if gerr == nil {
			return g, nil // the first rung: nothing was abandoned
		}
		if err := abandon("gtpn", gerr); err != nil {
			return Result{}, err
		}
	}

	if b.SimCycles >= 0 {
		sctx, cancel := boundedCtx(ctx, b.SimTimeout)
		s, serr := SimulateContext(sctx, p, w, n, SimOptions{Seed: b.Seed, MeasureCycles: b.SimCycles})
		cancel()
		if serr == nil {
			return withFallbacks(s, reasons), nil
		}
		if err := abandon("simulation", serr); err != nil {
			return Result{}, err
		}
	}

	r, merr := solveMVARung(ctx, &m, n)
	if merr != nil {
		if len(reasons) > 0 {
			return Result{}, fmt.Errorf("snoopmva: SolveBest exhausted all models (%s): mva: %w",
				strings.Join(reasons, "; "), merr)
		}
		return Result{}, merr
	}
	return withFallbacks(fromMVA(r), reasons), nil
}

// withFallbacks sets r's provenance from the reasons the ladder gave up
// its earlier rungs.
func withFallbacks(r Result, reasons []string) Result {
	r.Degraded = len(reasons) > 0
	r.FallbackReason = strings.Join(reasons, "; ")
	return r
}

// solveMVARung solves the ladder's last rung. Like SolveWithContext it
// recovers a panic into a *PanicError and classifies the error, so
// SolveBest can still wrap either with the reasons the earlier rungs
// gave up.
func solveMVARung(ctx context.Context, m *mva.Model, n int) (r mva.Result, err error) {
	defer guard(&err)
	return m.SolveContext(ctx, n, mva.Options{})
}

// boundedCtx derives a deadline-bounded context when timeout is positive.
func boundedCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// solveDetailedBudgeted is SolveDetailedContext with an explicit state
// budget (0 is the engine default, which the public entry point uses).
func solveDetailedBudgeted(ctx context.Context, p Protocol, w Workload, n, maxStates int) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	g, err := gtpnmodel.SolveContext(ctx, gtpnmodel.Config{
		Workload:         w.internal(),
		Mods:             p.inner.Mods,
		RawParams:        w.FixedParams,
		WriteThroughBase: p.inner.WriteThroughBase,
		N:                n,
	}, petri.Options{MaxStates: maxStates})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Method:          MethodGTPN,
		N:               g.N,
		Speedup:         g.Speedup,
		ProcessingPower: float64(g.N) * w.Tau / g.R,
		R:               g.R,
		BusUtilization:  g.UBus,
		BusWait:         g.WBus,
		States:          g.States,
	}, nil
}
