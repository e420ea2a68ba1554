package snoopmva

import (
	"context"

	"snoopmva/internal/cachesim"
	"snoopmva/internal/mva"
)

// This file holds the solver entry points of the three models. Each
// threads ctx into the underlying engine's hot loop (the MVA fixed
// point, the GTPN reachability BFS, the simulator cycle loop), which checks
// it periodically and abandons the computation when it fires; the returned
// error then satisfies errors.Is(err, ErrCanceled). Every variant also
// recovers internal panics into *PanicError and maps errors onto the public
// taxonomy (see errors.go).

// SolveWithContext runs the MVA model with explicit timing and options.
// Solve is this call with the zero Timing and Options and no deadline.
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
		Method:          MethodMVA,
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

// SolveDetailedContext runs the Generalized Timed Petri Net model — the
// paper's expensive comparator. Cost grows quickly with n; sizes beyond
// ~10 are rejected by maxStates. The reachability analysis checks ctx
// every 128 expanded states and the embedded-chain solve every 64
// Gauss–Seidel sweeps.
func SolveDetailedContext(ctx context.Context, p Protocol, w Workload, n int) (res Result, err error) {
	defer guard(&err)
	return solveDetailedBudgeted(ctx, p, w, n, 0)
}

// simPrecision is the relative half-width of the speedup's 95 % interval
// at which SimulateContext stops a run before its MeasureCycles cap.
const simPrecision = 0.01

// SimulateContext runs the cycle-level simulator: real protocol state
// machines over identified blocks, FCFS bus, interleaved memory. The run
// stops once its speedup is known to ±1 % at 95 % confidence, after at
// least a third of the MeasureCycles cap, or at the cap. The cycle loop
// checks ctx every ~10k simulated cycles.
func SimulateContext(ctx context.Context, p Protocol, w Workload, n int, opts SimOptions) (res Result, err error) {
	defer guard(&err)
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	r, err := cachesim.RunContext(ctx, cachesim.Config{
		N:             n,
		Protocol:      p.inner,
		Workload:      w.internal(),
		RawParams:     w.FixedParams,
		Seed:          seed,
		WarmupCycles:  opts.WarmupCycles,
		MeasureCycles: opts.MeasureCycles,
		RelPrecision:  simPrecision,
	})
	if err != nil {
		return Result{}, err
	}
	observed := fromInternalParams(r.Observed.Workload)
	observed.FixedParams = true
	return Result{
		Method:          MethodSimulation,
		N:               r.N,
		Speedup:         r.Speedup,
		ProcessingPower: float64(r.N) * w.Tau / r.R,
		R:               r.R,
		BusUtilization:  r.UBus,
		BusWait:         r.MeanBusWait,
		MemUtilization:  r.UMem,
		SpeedupLow:      r.SpeedupCI.Lo(),
		SpeedupHigh:     r.SpeedupCI.Hi(),
		Observed:        &observed,
	}, nil
}
