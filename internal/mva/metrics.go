package mva

import (
	"context"
	"errors"

	"snoopmva/internal/obs"
	"snoopmva/internal/workload"
)

// Metrics of the MVA fixed point (catalog in DESIGN.md §12). Vernon et
// al.'s efficiency claim is that the fixed point converges in a handful of
// iterations; the iteration histogram and the final-residual histogram
// are that claim made observable at runtime. All series are materialized
// at init, so the per-solve cost is a few atomic updates — nothing is
// recorded inside the iteration loop itself.
var (
	solvesOK            = obs.Default.Counter("snoopmva_mva_solves_total", "MVA fixed-point solves by outcome.", obs.L("outcome", "ok"))
	solvesNoConvergence = obs.Default.Counter("snoopmva_mva_solves_total", "MVA fixed-point solves by outcome.", obs.L("outcome", "no_convergence"))
	solvesDiverged      = obs.Default.Counter("snoopmva_mva_solves_total", "MVA fixed-point solves by outcome.", obs.L("outcome", "diverged"))
	solvesCanceled      = obs.Default.Counter("snoopmva_mva_solves_total", "MVA fixed-point solves by outcome.", obs.L("outcome", "canceled"))
	solvesInvalid       = obs.Default.Counter("snoopmva_mva_solves_total", "MVA fixed-point solves by outcome.", obs.L("outcome", "invalid"))
	solvesOther         = obs.Default.Counter("snoopmva_mva_solves_total", "MVA fixed-point solves by outcome.", obs.L("outcome", "error"))

	iterBuckets    = obs.ExpBuckets(1, 2, 12) // 1 .. 2048
	iterationsCold = obs.Default.Histogram("snoopmva_mva_iterations", "Fixed-point iterations per successful solve, by start kind.", iterBuckets, obs.L("start", "cold"))

	finalResidual = obs.Default.Histogram("snoopmva_mva_final_residual", "Final fixed-point residual (joint delta over R, w_bus, w_mem) of successful solves.",
		obs.ExpBuckets(1e-14, 10, 12)) // 1e-14 .. 1e-3
)

// recordSolve feeds one completed public solve attempt into the metrics.
func recordSolve(res *Result, err error) {
	if err != nil {
		switch {
		case errors.Is(err, ErrNoConvergence):
			solvesNoConvergence.Inc()
		case errors.Is(err, ErrDiverged):
			solvesDiverged.Inc()
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			solvesCanceled.Inc()
		case errors.Is(err, workload.ErrInvalid):
			solvesInvalid.Inc()
		default:
			solvesOther.Inc()
		}
		return
	}
	solvesOK.Inc()
	finalResidual.Observe(res.Residual)
	iterationsCold.Observe(float64(res.Iterations))
}
