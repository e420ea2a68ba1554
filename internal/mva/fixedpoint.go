package mva

import (
	"context"
	"errors"
	"fmt"
	"math"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/workload"
)

// ErrNoConvergence indicates the fixed point did not reach tolerance within
// the iteration budget.
var ErrNoConvergence = errors.New("mva: fixed point did not converge")

// ErrDiverged indicates the fixed-point iteration produced a non-finite
// iterate (NaN or Inf) — a silent numerical blow-up converted into a typed,
// recoverable error. The returned error is a *DivergenceError carrying the
// offending iterate.
var ErrDiverged = errors.New("mva: fixed point diverged to a non-finite iterate")

// DivergenceError records the offending iterate of a diverged fixed point.
// It wraps ErrDiverged.
type DivergenceError struct {
	N         int
	Iteration int
	// X is the non-finite image (R, w_bus, w_mem); see state.
	X state
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("mva: fixed point diverged to a non-finite iterate at iteration %d (N=%d, x=%v)",
		e.Iteration, e.N, e.X)
}

// Unwrap makes errors.Is(err, ErrDiverged) hold.
func (e *DivergenceError) Unwrap() error { return ErrDiverged }

// state is the iterate of the MVA fixed point: (R, w_bus, w_mem), the
// three quantities from which one evaluation of equations (5)–(13)
// follows. The convergence test is relative to the first coordinate.
type state [3]float64

// inDomain reports whether x is a state the iteration may move to:
// finite, a positive first coordinate and non-negative others.
func (x state) inDomain() bool {
	return isFinite(x[0]) && x[0] > 0 && isFinite(x[1]) && x[1] >= 0 && isFinite(x[2]) && x[2] >= 0
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// ctxCheckInterval is how many fixed-point iterations run between
// cancellation checks (one atomic load per check). The first check is at
// iteration 1, so a solve under an already-canceled context fails even
// when it would converge in fewer iterations than the interval.
const ctxCheckInterval = 64

// rung is one attempt of the default solve's fallback ladder.
type rung struct {
	damping    float64
	accelerate bool // Anderson-mix the iterate (damping is then 1)
}

// defaultLadder is the rung sequence of a solve with the zero Damping:
// the paper's plain substitution with Anderson acceleration first, then
// the unaccelerated iteration under-relaxed, for the deep-saturation
// configurations where the accelerated rung gives up.
var defaultLadder = [...]rung{{1, true}, {0.5, false}, {0.2, false}}

// fixedPoint drives the fixed-point iteration x ← G(x) of the MVA
// model. The caller (solveOnce) owns the loop and evaluates the map G;
// the driver owns the rest: the iteration budget and cancellation
// checks, the fault hooks, the non-finite guard, the damped update, the
// joint convergence test, Anderson mixing and the fallback ladder of
// Options.Damping, each rung restarting from the initial state:
//
//	fp := newFixedPoint(n, x0, opts)
//	for fp.Next(ctx) {
//		fp.Step(G(fp.X))
//	}
//	// fp.Err == nil exactly when the iteration converged.
//
// There is no callback: the map is evaluated inline in the caller's loop,
// so the iterate stays allocation-free.
type fixedPoint struct {
	// X is the current iterate; after convergence, the converged state.
	X state
	// Iter counts the completed iterations of the current rung.
	Iter int
	// Residual is the largest coordinate change of the last update — the
	// quantity compared against the tolerance.
	Residual float64
	// Err is nil on convergence. Otherwise it is ErrNoConvergence itself
	// once every rung's budget ran out (callers wrap it with their model's
	// context), a *DivergenceError, the wrapped context error, or an
	// invalid-damping error.
	Err error

	n        int
	x0       state
	tol      float64
	maxIter  int
	rung     rung
	fallback []rung
	hooks    *faultinject.Set
	done     bool
	aa       anderson
}

// newFixedPoint starts an iteration from x0 for a system of n processors.
// It reads Tol, MaxIter and Damping from opts and fires the MVAEnter hook.
func newFixedPoint(n int, x0 state, opts Options) fixedPoint {
	o := opts.withDefaults()
	fp := fixedPoint{X: x0, n: n, x0: x0, tol: o.Tol, maxIter: o.MaxIter, rung: rung{damping: o.Damping}}
	if !(o.Damping >= 0 && o.Damping <= 1) {
		fp.Err, fp.done = fmt.Errorf("mva: damping %v outside (0,1]: %w", o.Damping, workload.ErrInvalid), true
		return fp
	}
	if o.Damping == 0 {
		fp.rung, fp.fallback = defaultLadder[0], defaultLadder[1:]
	}
	if fp.hooks = faultinject.Hooks(); fp.hooks != nil && fp.hooks.MVAEnter != nil {
		fp.hooks.MVAEnter(n)
	}
	return fp
}

// Next reports whether the caller should evaluate G(X) and Step. It
// returns false once the iteration has converged or failed (see Err).
func (fp *fixedPoint) Next(ctx context.Context) bool {
	if fp.done || fp.Iter >= fp.maxIter || fp.Iter%ctxCheckInterval == 0 {
		return fp.boundary(ctx)
	}
	return true
}

// boundary is Next's out-of-line half: termination, rung fallback and the
// periodic cancellation check.
func (fp *fixedPoint) boundary(ctx context.Context) bool {
	if fp.done {
		return false
	}
	if fp.Iter >= fp.maxIter {
		if len(fp.fallback) == 0 {
			fp.Err, fp.done = ErrNoConvergence, true
			return false
		}
		fp.rung, fp.fallback = fp.fallback[0], fp.fallback[1:]
		fp.X, fp.Iter, fp.aa = fp.x0, 0, anderson{}
	}
	if fp.Iter%ctxCheckInterval == 0 {
		if err := ctx.Err(); err != nil {
			fp.Err, fp.done = fmt.Errorf("mva: solve interrupted at iteration %d (N=%d): %w", fp.Iter+1, fp.n, err), true
			return false
		}
	}
	return true
}

// Step completes one iteration given the image g = G(X): it applies the
// fault hooks, rejects a non-finite image, takes the damped update, tests
// joint convergence over all three coordinates — testing one alone can
// declare false convergence on the first iteration, before the others
// have moved off their start — and, on an accelerated rung, moves to the
// Anderson-mixed iterate instead of the plain image.
//
//snoop:hotpath steady-state iterate must not allocate (pinned at 0 allocs by TestSolveIsAllocationFree)
func (fp *fixedPoint) Step(g state) {
	iter := fp.Iter + 1
	stalled := false
	if h := fp.hooks; h != nil {
		if h.MVAPoison != nil {
			if poison, ok := h.MVAPoison(iter); ok {
				g[0] = poison
			}
		}
		stalled = h.MVAStall != nil && h.MVAStall(iter)
	}
	if !isFinite(g[0]) || !isFinite(g[1]) || !isFinite(g[2]) {
		//lint:allow hotalloc divergence error exit, taken at most once per solve
		fp.Err, fp.done = &DivergenceError{N: fp.n, Iteration: iter, X: g}, true
		return
	}
	prev, d := fp.X, fp.rung.damping
	var delta float64
	for i := range fp.X {
		fp.X[i] = d*g[i] + (1-d)*prev[i]
		if dx := math.Abs(fp.X[i] - prev[i]); dx > delta {
			delta = dx
		}
	}
	fp.Iter, fp.Residual = iter, delta
	if delta < fp.tol*(1+math.Abs(fp.X[0])) && !stalled {
		fp.done = true
		return
	}
	if fp.rung.accelerate {
		fp.X = fp.aa.next(prev, fp.X, delta)
	}
}
