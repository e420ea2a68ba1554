// Package markov provides steady-state solvers for discrete-time Markov
// chains, the numerical substrate underneath the GTPN engine
// (internal/petri).
//
// Two solver families are provided:
//
//   - the Grassmann–Taksar–Heyman (GTH) elimination algorithm on dense
//     matrices, which is numerically robust (no subtractions) and exact up
//     to rounding for chains of up to a few thousand states, and
//   - Gauss–Seidel iteration on sparse chains handed over row by row,
//     which solves the GTPN's embedded chains at every size.
//
// All chains are assumed irreducible over the supplied state set; the
// solvers report an error when that assumption visibly fails (an absorbing
// or backwards-unreachable state, non-convergence).
package markov

import (
	"fmt"
	"math"
)

// Dense is a dense row-major square matrix.
type Dense struct {
	n    int
	data []float64
}

// NewDense allocates an n×n zero matrix. A non-positive dimension is a
// validated constructor error (it is reachable from caller-supplied sizes,
// e.g. an empty queueing network), not a panic.
func NewDense(n int) (*Dense, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: dense dimension %d < 1", n)
	}
	return &Dense{n: n, data: make([]float64, n*n)}, nil
}

// newDense is the unchecked constructor for call sites whose dimension is a
// provable internal invariant (derived from an already-constructed matrix).
func newDense(n int) *Dense {
	m, err := NewDense(n)
	if err != nil {
		// Unreachable by construction: n comes from an existing matrix.
		panic("markov: internal invariant violated: " + err.Error())
	}
	return m
}

// N returns the dimension.
func (m *Dense) N() int { return m.n }

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Add accumulates v into element (i,j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.n+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := newDense(m.n)
	copy(c.data, m.data)
	return c
}

// RowSum returns the sum of row i.
func (m *Dense) RowSum(i int) float64 {
	var s float64
	for j := 0; j < m.n; j++ {
		s += m.data[i*m.n+j]
	}
	return s
}

// normalize scales v to sum to 1; returns false if the sum is not positive
// and finite.
func normalize(v []float64) bool {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return false
	}
	for i := range v {
		v[i] /= sum
	}
	return true
}
