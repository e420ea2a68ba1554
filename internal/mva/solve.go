package mva

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/workload"
)

// Solve computes the steady-state performance measures for n processors.
// The equations are iterated from zero waiting times (Section 3.2). With
// the default (zero) Damping, the paper's plain substitution is tried
// first, accelerated by depth-2 Anderson mixing (see anderson), and the
// solver falls back to under-relaxed iteration if that rung fails to
// converge (which happens only deep in saturation, far beyond the paper's
// configurations). An explicitly set Damping runs the unaccelerated
// damped iteration alone — Damping 1 is the paper's scheme exactly.
func (m Model) Solve(n int, opts Options) (Result, error) {
	return m.SolveContext(context.Background(), n, opts)
}

// SolveContext is Solve with cancellation: the fixed-point loop checks ctx
// every few iterations and returns ctx.Err() (wrapped) when it fires.
func (m Model) SolveContext(ctx context.Context, n int, opts Options) (res Result, err error) {
	defer func() { recordSolve(&res, err) }()
	if h := faultinject.Hooks(); h != nil && h.SolveDelay != nil {
		if d := h.SolveDelay(n); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return Result{}, fmt.Errorf("mva: solve canceled during injected delay (N=%d): %w", n, ctx.Err())
			case <-timer.C:
			}
		}
	}
	sc := acquireScratch()
	defer sc.release()
	return m.solveOnce(ctx, n, opts, false, sc)
}

// solveOnce evaluates the flat model's map inside the fixedPoint loop: the
// inner loop every sweep point and campaign point reduces to. With
// accelerate set it runs the ladder's accelerated rung alone, without its
// fallbacks (o.Damping must then be 1). The caller's scratch carries
// the derived inputs and per-size interference quantities across solves
// of the same model; every remaining loop quantity is hoisted to a precomputed
// scalar here, so the iterate itself is straight-line float arithmetic
// (one Exp, two division-free busy-probability evaluations) with no
// allocation and no struct copies.
//
//snoop:hotpath steady-state iterate must not allocate (pinned at 0 allocs by TestSolveIsAllocationFree)
func (m Model) solveOnce(ctx context.Context, n int, o Options, accelerate bool, sc *solveScratch) (Result, error) {
	if n < 1 {
		//lint:allow hotalloc invalid-input error exit, off the steady-state iterate
		return Result{}, fmt.Errorf("mva: system size %d < 1: %w", n, workload.ErrInvalid)
	}
	if err := sc.prepare(&m); err != nil {
		return Result{}, err
	}
	sc.prepareN(n)
	d := &sc.d
	t := d.Timing
	tau := d.Params.Tau
	iv := sc.iv
	nf := float64(n)

	// Loop invariants of the iterate, hoisted so the steady-state loop
	// touches only scalars. The arithmetic below preserves the original
	// per-iteration expressions' operation order wherever a quantity is
	// merely precomputed, so hoisting does not move the fixed point.
	pBc, pRr, pLocal := d.PBc, d.PRr, d.PLocal
	tRead := d.TRead
	tSupply, tWrite, tInval, dMem := t.TSupply, t.TWrite, t.TInval, t.DMem
	bcTouchesMem := d.BroadcastTouchesMemory

	// Bus occupancy of a remote read: under a split-transaction bus the
	// memory latency of memory-supplied reads comes off the bus.
	tReadBus := tRead
	if o.SplitTransactionBus {
		tReadBus -= dMem * (1 - d.PCsupplyRR)
		if tReadBus < 1 {
			tReadBus = 1
		}
	}

	// Equation (6)'s arrival-theorem population and equation (12)'s
	// constant factor (everything except the 1/R).
	others := nf - 1
	if o.NoArrivalCorrection {
		others = nf
	}
	memFactor := nf * (1 / float64(t.BlockSize)) * d.MemOpsPerRequest() * dMem

	// Equations (9)–(10): the class weights of the bus access time are
	// request-mix constants; only tBc varies with w_mem.
	var fBc, fRr float64
	if busTotal := pBc + pRr; busTotal > 0 {
		fBc = pBc / busTotal
		fRr = pRr / busTotal
	}
	half := 2.0
	if o.ExponentialBus {
		// Memoryless access times: residual = full duration.
		half = 1.0
	}

	// Equation (13): the geometric interference term P'^Q̄ is evaluated
	// as Exp(Q̄·log P') with log P' precomputed per (model, n) — one Exp
	// per iteration instead of math.Pow's internal Log+Exp.
	ppGE1 := iv.PPrime >= 1
	ppZero := iv.PPrime <= 0
	lnPPrime := sc.lnPPrime
	invIntDenom := 0.0
	if !ppGE1 && !ppZero {
		invIntDenom = 1 - iv.PPrime
	}

	// Fixed-point state (R, w_bus, w_mem): waiting times start at zero
	// (Section 3.2).
	x0 := state{tau + tSupply + pBc*d.TBc(0) + pRr*tRead, 0, 0}

	fp := newFixedPoint(n, x0, o)
	if accelerate {
		fp.rung, fp.fallback = defaultLadder[0], nil
	}
	// The measures of the last evaluation, reported on convergence.
	var rLocal, rBroadcast, rRemoteRead, qBus, uBus, tBus, tRes, uMem, nInt float64
	for fp.Next(ctx) {
		r, wBus, wMem := fp.X[0], fp.X[1], fp.X[2]
		// Broadcast bus occupancy (T_write + w_mem, or T_inval) — the
		// inlined body of Derived.TBc.
		tBc := tInval
		if bcTouchesMem {
			tBc = tWrite + wMem
		}

		// Equations (3) and (4): weighted response-time components.
		rBroadcast = pBc * (wBus + tBc)
		rRemoteRead = pRr * (wBus + tRead)

		// Equation (6): mean bus-queue population seen by an arrival —
		// the arrival-theorem heuristic (other N−1 caches at their
		// steady-state behavior).
		qBus = others * (rBroadcast + rRemoteRead) / r
		if qBus < 0 {
			qBus = 0
		}

		// Equation (7): bus utilization from per-cache bus demand.
		busDemand := pBc*tBc + pRr*tReadBus
		uBus = nf * busDemand / r
		// Equation (8): probability an arrival finds the bus busy.
		var pBusyBus float64
		if o.NoArrivalCorrection {
			pBusyBus = math.Min(uBus, 1)
		} else {
			pBusyBus = busyProbability(uBus, nf)
		}

		// Equations (9) and (10): mean access time and residual life.
		tBus, tRes = 0, 0
		if busDemand > 0 {
			tBus = fBc*tBc + fRr*tReadBus
			// Residual life weights each class by its share of bus *time*
			// (length-biased sampling), then takes duration/2 for the
			// deterministic access times.
			wBcTime := pBc * tBc
			wRrTime := pRr * tReadBus
			tot := wBcTime + wRrTime
			tRes = (wBcTime/tot)*(tBc/half) + (wRrTime/tot)*(tReadBus/half)
			if o.NoResidualLife {
				tRes = tBus
			}
		}

		// Equation (5): mean bus waiting time. The waiting population
		// (those not in service) is Q̄ − p_busy; the approximation can go
		// slightly negative at light load, clamp at zero.
		waiting := qBus - pBusyBus
		if waiting < 0 {
			waiting = 0
		}
		newWBus := waiting*tBus + pBusyBus*tRes

		// Equations (11) and (12): memory-module interference.
		var newWMem float64
		uMem = 0
		if !o.NoMemoryInterference {
			uMem = memFactor / r
			var pBusyMem float64
			if o.NoArrivalCorrection {
				pBusyMem = math.Min(uMem, 1)
			} else {
				pBusyMem = busyProbability(uMem, nf)
			}
			newWMem = pBusyMem * dMem / 2
		}

		// Equation (13) and (2): cache interference on local requests.
		nInt, rLocal = 0, 0
		if !o.NoCacheInterference && qBus > 0 {
			switch {
			case ppGE1:
				nInt = iv.P * qBus
			case ppZero:
				// P' = 0 and Q̄ > 0: the geometric term vanishes exactly
				// (0^Q̄ = 0), matching math.Pow's convention.
				nInt = iv.P
			default:
				nInt = iv.P * (1 - math.Exp(qBus*lnPPrime)) / invIntDenom
			}
			rLocal = pLocal * nInt * iv.TInterference
		}

		// Equation (1).
		newR := tau + rLocal + rBroadcast + rRemoteRead + tSupply
		fp.Step(state{newR, newWBus, newWMem})
	}

	res := Result{N: n, Mods: m.Mods, Iterations: fp.Iter}
	switch {
	case errors.Is(fp.Err, ErrNoConvergence):
		if o.Damping == 0 {
			// No one rung's iterate describes an exhausted ladder.
			res = Result{}
		}
		//lint:allow hotalloc no-convergence error exit, off the steady-state iterate
		return res, fmt.Errorf("%w within %d iterations (N=%d, %v)", ErrNoConvergence, fp.Iter, n, m.Mods)
	case fp.Err != nil:
		return res, fp.Err
	}
	res.Residual = fp.Residual
	res.R = fp.X[0]
	res.RLocal = rLocal
	res.RBroadcast = rBroadcast
	res.RRemoteRead = rRemoteRead
	res.WBus = fp.X[1]
	res.QBus = qBus
	res.UBus = math.Min(uBus, 1)
	res.TBus = tBus
	res.TResBus = tRes
	res.WMem = fp.X[2]
	res.UMem = math.Min(uMem, 1)
	res.NInterference = nInt
	res.Speedup = nf * (tau + tSupply) / fp.X[0]
	res.ProcessingPower = nf * tau / fp.X[0]
	return res, nil
}

// AsymptoticSpeedup returns the bus-saturation speedup bound
// N·(τ+T_supply)/R as N→∞: the bus is the bottleneck, so throughput tends
// to 1/(bus demand per request) requests per cycle and speedup tends to
// (τ+T_supply)/busDemand. Memory waits at saturation are bounded by
// d_mem/2; this returns the bound with that worst-case wait included and
// excluded.
func (m Model) AsymptoticSpeedup() (lo, hi float64, err error) {
	d, err := m.Derive()
	if err != nil {
		return 0, 0, err
	}
	t := d.Timing
	base := d.Params.Tau + t.TSupply
	demandLo := d.PBc*d.TBc(t.DMem/2) + d.PRr*d.TRead
	demandHi := d.PBc*d.TBc(0) + d.PRr*d.TRead
	if demandHi <= 0 {
		// A workload that never touches the bus has no saturation bound:
		// the asymptote is genuinely infinite, and callers compare
		// against it (Inf bounds never clip a finite speedup).
		//lint:allow naninf the asymptotic bound of a zero-bus-demand workload is mathematically infinite
		return math.Inf(1), math.Inf(1), nil
	}
	return base / demandLo, base / demandHi, nil
}
