// Package markov provides steady-state solvers for discrete-time Markov
// chains, the numerical substrate underneath the GTPN engine
// (internal/petri).
//
// Two solver families are provided:
//
//   - the Grassmann–Taksar–Heyman (GTH) elimination algorithm on dense
//     matrices, which is numerically robust (no subtractions) and exact up
//     to rounding for chains of up to a few thousand states, and
//   - Gauss–Seidel iteration on sparse (CSR) matrices, which solves the
//     GTPN's embedded chains at every size.
//
// All chains are assumed irreducible over the supplied state set; the
// solvers report an error when that assumption visibly fails (an absorbing
// or backwards-unreachable state, non-convergence).
package markov

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// coo is one coordinate-format entry used while assembling a sparse matrix.
type coo struct {
	row, col int
	val      float64
}

// Sparse is a compressed-sparse-row (CSR) square matrix, built through a
// SparseBuilder or handed over whole with NewSparse.
type Sparse struct {
	n      int
	rowPtr []int
	colIdx []int
	values []float64
}

// SparseBuilder accumulates entries (duplicates are summed) and produces a
// CSR matrix.
type SparseBuilder struct {
	n       int
	entries []coo
}

// NewSparseBuilder creates a builder for an n×n matrix. A non-positive
// dimension is a validated constructor error, not a panic.
func NewSparseBuilder(n int) (*SparseBuilder, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: sparse dimension %d < 1", n)
	}
	return &SparseBuilder{n: n}, nil
}

// Add accumulates v into entry (i,j). An out-of-range index panics: every
// caller derives indices from a state enumeration bounded by the builder's
// dimension, so this is a provable internal invariant, not a caller input.
func (b *SparseBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("markov: internal invariant violated: sparse index (%d,%d) out of range for n=%d", i, j, b.n))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, coo{i, j, v})
}

// Build finalizes the CSR matrix, summing duplicate coordinates.
func (b *SparseBuilder) Build() *Sparse {
	slices.SortStableFunc(b.entries, func(x, y coo) int { return cmp.Or(x.row-y.row, x.col-y.col) })
	s := &Sparse{n: b.n, rowPtr: make([]int, b.n+1)}
	for k, e := range b.entries {
		if k > 0 && e.row == b.entries[k-1].row && e.col == b.entries[k-1].col {
			s.values[len(s.values)-1] += e.val
			continue
		}
		s.colIdx = append(s.colIdx, e.col)
		s.values = append(s.values, e.val)
		s.rowPtr[e.row+1]++ // a count per row until the prefix sum below
	}
	for i := 0; i < b.n; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	return s
}

// NewSparse takes ownership of an assembled n×n CSR matrix: row i holds
// columns colIdx[rowPtr[i]:rowPtr[i+1]] with the matching values. Callers
// that produce rows in order (a BFS over a state space) skip the
// builder's sort; each row's columns must be distinct.
func NewSparse(n int, rowPtr, colIdx []int, values []float64) (*Sparse, error) {
	ok := n > 0 && len(rowPtr) == n+1 && rowPtr[0] == 0 && rowPtr[n] == len(colIdx) && len(colIdx) == len(values)
	for i := 0; ok && i < n; i++ {
		ok = rowPtr[i] <= rowPtr[i+1]
	}
	for k := 0; ok && k < len(colIdx); k++ {
		ok = colIdx[k] >= 0 && colIdx[k] < n
	}
	if !ok {
		return nil, fmt.Errorf("markov: malformed %d×%d CSR matrix (%d row pointers, %d columns, %d values)",
			n, n, len(rowPtr), len(colIdx), len(values))
	}
	return &Sparse{n: n, rowPtr: rowPtr, colIdx: colIdx, values: values}, nil
}

// inflow is a Sparse matrix transposed with the diagonal left out: row j
// lists the (i, S[i][j]) that flow into j, the access pattern of a
// Gauss–Seidel sweep. Its indices are 32-bit, so more of it stays in
// cache.
type inflow struct {
	rowPtr, colIdx []int32
	values         []float64
}

// transposeOffDiag returns Sᵀ with the diagonal left out, and the diagonal
// separately. It fails when S has more entries than 32-bit indices reach.
func (s *Sparse) transposeOffDiag() (inflow, []float64, error) {
	if len(s.values) > math.MaxInt32 {
		return inflow{}, nil, fmt.Errorf("markov: %d entries exceed the Gauss–Seidel solver's 32-bit indices", len(s.values))
	}
	diag := make([]float64, s.n)
	t := inflow{rowPtr: make([]int32, s.n+1)}
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if j := s.colIdx[k]; j != i {
				t.rowPtr[j+1]++
			}
		}
	}
	for j := 0; j < s.n; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	t.colIdx = make([]int32, t.rowPtr[s.n])
	t.values = make([]float64, t.rowPtr[s.n])
	next := append([]int32(nil), t.rowPtr[:s.n]...)
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			j := s.colIdx[k]
			if j == i {
				diag[i] += s.values[k]
				continue
			}
			t.colIdx[next[j]] = int32(i)
			t.values[next[j]] = s.values[k]
			next[j]++
		}
	}
	return t, diag, nil
}

// N returns the dimension.
func (s *Sparse) N() int { return s.n }

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.values) }

// RowSum returns the sum of stored entries in row i.
func (s *Sparse) RowSum(i int) float64 {
	var sum float64
	for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
		sum += s.values[k]
	}
	return sum
}

// VecMul computes dst = x · S (row vector times matrix). dst and x must both
// have length N and must not alias.
func (s *Sparse) VecMul(dst, x []float64) {
	if len(dst) != s.n || len(x) != s.n {
		panic("markov: internal invariant violated: VecMul dimension mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			dst[s.colIdx[k]] += xi * s.values[k]
		}
	}
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
