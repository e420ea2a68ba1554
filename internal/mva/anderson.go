package mva

// Safeguards of the accelerated rung. They are internal constants, not
// options: the oracle property test pins the iteration bound they buy.
const (
	// andersonWindow is how many consecutive steps may pass without a new
	// best residual before the mixing history is discarded and the
	// iteration restarts from the plain image G(x).
	andersonWindow = 12
	// andersonRestarts is how many such restarts are allowed before the
	// rung gives up on acceleration and continues as plain substitution.
	andersonRestarts = 3
	// andersonCollinear bounds the squared sine of the angle between the
	// two residual differences below which the depth-2 least-squares
	// problem is treated as rank-deficient and the older column dropped.
	andersonCollinear = 1e-10
)

// anderson is the mixing state of a depth-2 Anderson (type-II)
// acceleration of the fixed-point map x ↦ G(x) over a model's state. Each
// step takes the last three residuals f_j = G(x_j) − x_j and images
// g_j = G(x_j), finds the γ minimizing
// ‖f_k − ΔF·γ‖₂ over the residual differences ΔF, and moves to
// g_k − ΔG·γ instead of the plain g_k. Near saturation the plain map
// converges as a slowly damped oscillation (a complex eigenvalue pair);
// the extrapolation cancels that pair, which is what cuts hundreds of
// plain steps to about a dozen.
//
// The zero value is ready to use. It lives in the fixedPoint: the
// history is fixed-size arrays, so a step allocates nothing.
type anderson struct {
	f, g     [3]state // residuals and images, newest first
	have     int      // valid history entries (0..3)
	best     float64  // smallest residual since the last restart; 0 = none yet
	stale    int      // steps since best last improved
	restarts int
	off      bool // safeguards exhausted: plain substitution from here on
}

// next returns the iterate that follows x, given its image g = G(x) and
// the residual norm res = ‖g − x‖∞. It falls back to the plain step g in
// two cases. If the extrapolated point leaves the solver's domain (see
// state.inDomain), the history is cut back to the
// newest pair, so mixing resumes from the current residual at the next
// step. If the residual has not improved on its best for andersonWindow
// steps, the history is emptied; after andersonRestarts such restarts the
// rung continues as plain substitution.
//
//snoop:hotpath accelerated steady-state iterate must not allocate (pinned at 0 allocs by TestSolveIsAllocationFree)
func (a *anderson) next(x, g state, res float64) state {
	if a.off {
		return g
	}
	if a.best == 0 || res < a.best {
		a.best, a.stale = res, 0
	} else if a.stale++; a.stale >= andersonWindow {
		a.restarts++
		a.off = a.restarts > andersonRestarts
		a.have, a.stale, a.best = 0, 0, res
		return g
	}

	a.f[2], a.f[1] = a.f[1], a.f[0]
	a.g[2], a.g[1] = a.g[1], a.g[0]
	for i := range x {
		a.f[0][i] = g[i] - x[i]
	}
	a.g[0] = g
	if a.have < len(a.f) {
		a.have++
	}
	if a.have == 1 {
		return g
	}

	// Residual differences d1 = f_k − f_{k−1}, d2 = f_{k−1} − f_{k−2} and
	// the normal equations of the least-squares problem for γ.
	var d1, d2 [3]float64
	var a11, a12, a22, b1, b2 float64
	for i := range d1 {
		d1[i] = a.f[0][i] - a.f[1][i]
		a11 += d1[i] * d1[i]
		b1 += d1[i] * a.f[0][i]
	}
	if a11 <= 0 {
		return g
	}
	gamma1, gamma2 := b1/a11, 0.0
	if a.have == 3 {
		for i := range d2 {
			d2[i] = a.f[1][i] - a.f[2][i]
			a12 += d1[i] * d2[i]
			a22 += d2[i] * d2[i]
			b2 += d2[i] * a.f[0][i]
		}
		if det := a11*a22 - a12*a12; det > andersonCollinear*a11*a22 {
			gamma1 = (b1*a22 - a12*b2) / det
			gamma2 = (a11*b2 - a12*b1) / det
		}
	}

	var out state
	for i := range out {
		out[i] = g[i] - gamma1*(a.g[0][i]-a.g[1][i]) - gamma2*(a.g[1][i]-a.g[2][i])
	}
	if !out.inDomain() {
		a.have = 1 // keep only (f_k, g_k)
		return g
	}
	return out
}
