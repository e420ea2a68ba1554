package snoopmva

import (
	"context"
	"fmt"
	"io"

	"snoopmva/internal/cachesim"
	"snoopmva/internal/exp"
	"snoopmva/internal/mva"
)

// This file holds the context-aware variants of the solver entry points.
// Each threads ctx into the underlying engine's hot loop (the MVA fixed
// point, the GTPN reachability BFS, the simulator cycle loop), which checks
// it periodically and abandons the computation when it fires; the returned
// error then satisfies errors.Is(err, ErrCanceled). Every variant also
// recovers internal panics into *PanicError and maps errors onto the public
// taxonomy (see errors.go).

// SolveWithContext is SolveWith with cancellation.
func SolveWithContext(ctx context.Context, p Protocol, w Workload, t Timing, n int, opts Options) (res Result, err error) {
	defer guard(&err)
	m, err := model(p, w, t)
	if err != nil {
		return Result{}, err
	}
	r, err := m.SolveContext(ctx, n, opts.internal())
	if err != nil {
		return Result{}, err
	}
	return fromMVA(r), nil
}

// fromMVA converts an internal MVA result to the public Result.
func fromMVA(r mva.Result) Result {
	return Result{
		N:               r.N,
		Speedup:         r.Speedup,
		ProcessingPower: r.ProcessingPower,
		R:               r.R,
		BusUtilization:  r.UBus,
		BusWait:         r.WBus,
		MemUtilization:  r.UMem,
		MemWait:         r.WMem,
		Iterations:      r.Iterations,
	}
}

// SweepContext is Sweep with cancellation: the sweep stops at the first
// size whose solve fails or is canceled.
//
// The sweep is warm-started: each size's fixed-point iteration is seeded
// from the previous size's converged state (adjacent sizes have nearby
// solutions, so the iteration count drops sharply across a N=1..100
// curve). Every point still converges to the same tolerance as a cold
// solve — warm starting changes the iteration trajectory, not the fixed
// point — so results agree with per-size Solve calls to within the solver
// tolerance (TestPropertyWarmStartAgreesWithCold enforces this).
func SweepContext(ctx context.Context, p Protocol, w Workload, ns []int) (out []Result, err error) {
	defer guard(&err)
	m, merr := model(p, w, Timing{})
	if merr != nil {
		return nil, merr
	}
	opts := Options{}.internal()
	out = make([]Result, 0, len(ns))
	for _, n := range ns {
		r, serr := m.SolveContext(ctx, n, opts)
		if serr != nil {
			return nil, fmt.Errorf("snoopmva: sweep at N=%d: %w", n, serr)
		}
		out = append(out, fromMVA(r))
		warm := r.Warm()
		opts.Warm = &warm
	}
	return out, nil
}

// SolveDetailedContext is SolveDetailed with cancellation: the reachability
// analysis checks ctx every 128 expanded states and the embedded-chain
// solve every 64 Gauss–Seidel sweeps.
func SolveDetailedContext(ctx context.Context, p Protocol, w Workload, n int) (res DetailedResult, err error) {
	defer guard(&err)
	return solveDetailedBudgeted(ctx, p, w, n, 0)
}

// SimulateContext is Simulate with cancellation: the cycle loop checks ctx
// every ~10k simulated cycles.
func SimulateContext(ctx context.Context, p Protocol, w Workload, n int, opts SimOptions) (res SimResult, err error) {
	defer guard(&err)
	if err := p.validate(); err != nil {
		return SimResult{}, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	r, err := cachesim.RunContext(ctx, cachesim.Config{
		N:                 n,
		Protocol:          p.inner,
		Workload:          w.internal(),
		RawParams:         w.FixedParams,
		Seed:              seed,
		WarmupCycles:      opts.WarmupCycles,
		MeasureCycles:     opts.MeasureCycles,
		AdaptiveThreshold: opts.AdaptiveThreshold,
		SplitTransactions: opts.SplitTransactions,
	})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		N:               r.N,
		Speedup:         r.Speedup,
		SpeedupLow:      r.SpeedupCI.Lo(),
		SpeedupHigh:     r.SpeedupCI.Hi(),
		R:               r.R,
		BusUtilization:  r.UBus,
		MemUtilization:  r.UMem,
		ObservedAmod:    r.Observed.Amod,
		ObservedCsupply: r.Observed.Csupply,
		MeanResponse:    r.MeanResponse,
		P95Response:     r.P95Response,
	}, nil
}

// RunExperimentContext is RunExperiment with cancellation: the GTPN and
// simulator stages inside the experiment check ctx periodically.
func RunExperimentContext(ctx context.Context, id string, w io.Writer, gtpnMaxN int, simCycles int64) (err error) {
	defer guard(&err)
	e, ok := exp.ByID(id)
	if !ok {
		return fmt.Errorf("%w: unknown experiment %q (have %v)", ErrInvalidInput, id, Experiments())
	}
	if gtpnMaxN <= 0 {
		gtpnMaxN = -1
	}
	rep, err := e.Run(exp.RunConfig{Ctx: ctx, GTPNMaxN: gtpnMaxN, SimCycles: simCycles})
	if err != nil {
		return err
	}
	return rep.WriteText(w)
}
