package markov

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrNotStochastic indicates that a supplied transition matrix has a row
// that does not sum to (approximately) one.
var ErrNotStochastic = errors.New("markov: matrix is not row-stochastic")

// ErrNoConvergence indicates that an iterative solver did not reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("markov: iteration did not converge")

// ErrReducible indicates that a chain visibly is not irreducible: a state
// is absorbing or cannot be reached backwards from the others.
var ErrReducible = errors.New("markov: chain is reducible")

const stochTol = 1e-8

// SteadyStateGTH computes the stationary distribution π of an irreducible
// DTMC with transition matrix P (row-stochastic) using the
// Grassmann–Taksar–Heyman algorithm. GTH performs state elimination using
// only additions, multiplications and divisions of non-negative quantities,
// making it far more robust than straight Gaussian elimination for nearly
// decomposable chains.
//
// P is modified in place; pass P.Clone() to preserve it.
func SteadyStateGTH(p *Dense) ([]float64, error) {
	return SteadyStateGTHContext(context.Background(), p)
}

// SteadyStateGTHContext is SteadyStateGTH with cancellation: the O(n³)
// elimination sweep checks ctx once per eliminated state.
func SteadyStateGTHContext(ctx context.Context, p *Dense) ([]float64, error) {
	n := p.N()
	for i := 0; i < n; i++ {
		if math.Abs(p.RowSum(i)-1) > stochTol {
			return nil, fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, p.RowSum(i))
		}
	}
	if n == 1 {
		return []float64{1}, nil
	}
	// Elimination sweep: fold state k into states 0..k-1 (Stewart's
	// formulation: column k is normalized by the row-k escape mass so the
	// back substitution can use it directly).
	for k := n - 1; k > 0; k-- {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("markov: GTH interrupted at state %d of %d: %w", n-k, n, err)
		}
		// s = total rate out of k to states below it.
		var s float64
		for j := 0; j < k; j++ {
			s += p.At(k, j)
		}
		if s <= 0 {
			return nil, fmt.Errorf("%w: state %d unreachable backwards", ErrReducible, k)
		}
		for i := 0; i < k; i++ {
			p.Set(i, k, p.At(i, k)/s)
		}
		for i := 0; i < k; i++ {
			pik := p.At(i, k)
			if pik == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				p.Add(i, j, pik*p.At(k, j))
			}
		}
	}
	// Back substitution.
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var s float64
		for i := 0; i < k; i++ {
			s += pi[i] * p.At(i, k)
		}
		pi[k] = s
	}
	if !normalize(pi) {
		return nil, errors.New("markov: GTH produced a degenerate solution")
	}
	return pi, nil
}

// IterOptions configures SteadyStateGaussSeidel.
type IterOptions struct {
	// Tol is the convergence tolerance on the L1 change per sweep.
	// Zero means 1e-12.
	Tol float64
	// MaxIter bounds the sweep count. Zero means 200000.
	MaxIter int
}

// SteadyStateGaussSeidel computes the stationary distribution of an
// irreducible DTMC on n states whose row-stochastic transition matrix P is
// handed over row by row: row(i) returns the distinct columns of row i's
// entries and their probabilities, the same on every call. It iterates on
// the balance equations: each sweep sets π_j = Σ_{i≠j} π_i·P_ij / (1−P_jj)
// in state order, using the states already updated in the same sweep,
// then renormalizes. Unlike plain power iteration it needs no damping to
// converge on periodic chains. A chain with an absorbing or unreachable
// state is rejected with ErrReducible. The iteration checks ctx every 64
// sweeps.
func SteadyStateGaussSeidel(ctx context.Context, n int, row func(i int) ([]int32, []float64), opts IterOptions) ([]float64, error) {
	tol, maxIter := opts.Tol, opts.MaxIter
	if tol == 0 {
		tol = 1e-12
	}
	if maxIter == 0 {
		maxIter = 200000
	}
	if n < 1 {
		return nil, fmt.Errorf("markov: chain dimension %d < 1", n)
	}
	nnz := 0
	for i := 0; i < n; i++ {
		cols, probs := row(i)
		if len(cols) != len(probs) {
			return nil, fmt.Errorf("markov: row %d has %d columns and %d probabilities", i, len(cols), len(probs))
		}
		var sum float64
		for k, j := range cols {
			if j < 0 || int(j) >= n {
				return nil, fmt.Errorf("markov: row %d has column %d outside the %d states", i, j, n)
			}
			sum += probs[k]
		}
		if math.Abs(sum-1) > stochTol {
			return nil, fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, sum)
		}
		nnz += len(cols)
	}
	if n == 1 {
		return []float64{1}, nil
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("markov: %d entries exceed the Gauss–Seidel solver's 32-bit indices", nnz)
	}
	// The in-flow matrix is Pᵀ with the diagonal left out: row j lists the
	// (i, P_ij) that flow into j, the access pattern of a sweep, with i
	// ascending. Its indices are 32-bit, so more of it stays in cache.
	diag := make([]float64, n)
	inPtr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		cols, _ := row(i)
		for _, j := range cols {
			if int(j) != i {
				inPtr[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		inPtr[j+1] += inPtr[j]
	}
	inFrom, inProb := make([]int32, inPtr[n]), make([]float64, inPtr[n])
	next := append([]int32(nil), inPtr[:n]...)
	for i := 0; i < n; i++ {
		cols, probs := row(i)
		for k, j := range cols {
			if int(j) == i {
				diag[i] += probs[k]
				continue
			}
			inFrom[next[j]], inProb[next[j]] = int32(i), probs[k]
			next[j]++
		}
	}
	// An absorbing state (P_jj = 1) or one nothing else flows into makes
	// the chain reducible. Absorbing states are reported first: they are
	// the ones that would mint an Inf in scale[j] = 1/(1−P_jj).
	for j, d := range diag {
		if d >= 1 {
			return nil, fmt.Errorf("%w: state %d is absorbing (P[%d][%d] = %v)", ErrReducible, j, j, j, d)
		}
	}
	scale := diag
	for j, d := range diag {
		if inPtr[j] == inPtr[j+1] {
			return nil, fmt.Errorf("%w: state %d is unreachable from the others", ErrReducible, j)
		}
		scale[j] = 1 / (1 - d)
	}
	x := make([]float64, n)
	prev := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		if iter%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("markov: Gauss–Seidel interrupted at sweep %d: %w", iter, err)
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			lo, hi := inPtr[j], inPtr[j+1]
			vals := inProb[lo:hi]
			var s float64
			for k, i := range inFrom[lo:hi] {
				s += x[i] * vals[k]
			}
			prev[j] = x[j]
			x[j] = s * scale[j]
			sum += x[j]
		}
		if !(sum > 0) || math.IsInf(sum, 0) {
			return nil, errors.New("markov: Gauss–Seidel produced a degenerate iterate")
		}
		var diff float64
		for i := range x {
			x[i] /= sum
			diff += math.Abs(x[i] - prev[i])
		}
		if diff < tol {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%w after %d sweeps", ErrNoConvergence, maxIter)
}
