package markov

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoState builds the classic 2-state chain with P01=a, P10=b whose
// stationary distribution is (b/(a+b), a/(a+b)).
func twoState(a, b float64) *Dense {
	p := newDense(2)
	p.Set(0, 0, 1-a)
	p.Set(0, 1, a)
	p.Set(1, 0, b)
	p.Set(1, 1, 1-b)
	return p
}

func TestGTHTwoState(t *testing.T) {
	pi, err := SteadyStateGTH(twoState(0.3, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pi[0], 2.0/3.0, 1e-12) || !approx(pi[1], 1.0/3.0, 1e-12) {
		t.Errorf("pi = %v, want [2/3 1/3]", pi)
	}
}

func TestGTHSingleState(t *testing.T) {
	p := newDense(1)
	p.Set(0, 0, 1)
	pi, err := SteadyStateGTH(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(pi) != 1 || pi[0] != 1 {
		t.Errorf("pi = %v, want [1]", pi)
	}
}

func TestGTHRejectsNonStochastic(t *testing.T) {
	p := newDense(2)
	p.Set(0, 0, 0.5) // row sums to 0.5
	p.Set(1, 1, 1)
	if _, err := SteadyStateGTH(p); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("expected ErrNotStochastic, got %v", err)
	}
}

func TestGTHReducibleChain(t *testing.T) {
	// State 1 never reaches state 0: elimination should fail.
	p := newDense(2)
	p.Set(0, 0, 0.5)
	p.Set(0, 1, 0.5)
	p.Set(1, 1, 1)
	if _, err := SteadyStateGTH(p); err == nil {
		t.Error("expected error for reducible chain")
	}
}

// randomStochastic builds a random irreducible stochastic matrix by mixing a
// random matrix with a small uniform component.
func randomStochastic(rng *rand.Rand, n int) *Dense {
	p := newDense(n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		var sum float64
		for j := range row {
			row[j] = rng.Float64() + 0.01 // strictly positive => irreducible
			sum += row[j]
		}
		for j := range row {
			p.Set(i, j, row[j]/sum)
		}
	}
	return p
}

func TestGTHSatisfiesBalanceEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		p := randomStochastic(rng, n)
		orig := p.Clone()
		pi, err := SteadyStateGTH(p)
		if err != nil {
			t.Fatal(err)
		}
		// Check pi = pi * P and normalization.
		var sum float64
		for _, v := range pi {
			if v < 0 {
				t.Fatalf("negative stationary probability %v", v)
			}
			sum += v
		}
		if !approx(sum, 1, 1e-10) {
			t.Fatalf("pi sums to %v", sum)
		}
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += pi[i] * orig.At(i, j)
			}
			if !approx(s, pi[j], 1e-9) {
				t.Fatalf("balance violated at %d: %v vs %v", j, s, pi[j])
			}
		}
	}
}

func TestGaussSeidelMatchesGTH(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		d := randomStochastic(rng, n)
		b := mustSparse(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Add(i, j, d.At(i, j))
			}
		}
		s := b.Build()
		piS, err := SteadyStateGaussSeidel(context.Background(), s, IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		piG, err := SteadyStateGTH(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range piS {
			if !approx(piS[i], piG[i], 1e-8) {
				t.Fatalf("Gauss–Seidel vs GTH mismatch at %d: %v vs %v", i, piS[i], piG[i])
			}
		}
	}
}

func TestGaussSeidelPeriodicChain(t *testing.T) {
	// Strictly periodic chains: undamped power iteration oscillates on
	// them forever, Gauss–Seidel must converge without damping. The
	// 3-state one is bipartite ({0,2} ↔ {1}) with stationary [1/4 1/2 1/4].
	b := mustSparse(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	pi, err := SteadyStateGaussSeidel(context.Background(), b.Build(), IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pi[0], 0.5, 1e-9) || !approx(pi[1], 0.5, 1e-9) {
		t.Errorf("pi = %v, want [0.5 0.5]", pi)
	}
	b = mustSparse(3)
	b.Add(0, 1, 1)
	b.Add(1, 0, 0.5)
	b.Add(1, 2, 0.5)
	b.Add(2, 1, 1)
	pi, err = SteadyStateGaussSeidel(context.Background(), b.Build(), IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pi[0], 0.25, 1e-9) || !approx(pi[1], 0.5, 1e-9) || !approx(pi[2], 0.25, 1e-9) {
		t.Errorf("pi = %v, want [0.25 0.5 0.25]", pi)
	}
}

func TestGaussSeidelRejectsBadInput(t *testing.T) {
	b := mustSparse(2)
	b.Add(0, 0, 0.7) // row 0 sums to 0.7; row 1 sums to 0
	s := b.Build()
	if _, err := SteadyStateGaussSeidel(context.Background(), s, IterOptions{}); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("expected ErrNotStochastic, got %v", err)
	}
	for _, c := range []struct {
		name   string
		n      int
		rowPtr []int
		colIdx []int
		values []float64
	}{
		{"zero dimension", 0, []int{0}, nil, nil},
		{"short row pointers", 2, []int{0, 1}, []int{1}, []float64{1}},
		{"values/columns mismatch", 1, []int{0, 1}, []int{0}, nil},
		{"decreasing row pointers", 2, []int{0, 2, 1}, []int{0}, []float64{1}},
		{"column out of range", 2, []int{0, 1, 2}, []int{1, 2}, []float64{1, 1}},
	} {
		if _, err := NewSparse(c.n, c.rowPtr, c.colIdx, c.values); err == nil {
			t.Errorf("NewSparse accepted a malformed matrix (%s)", c.name)
		}
	}
}

func TestGaussSeidelNoConvergence(t *testing.T) {
	// Slowly mixing asymmetric chain: one sweep moves the uniform start to
	// the stationary point [2/3 1/3], a change far above 1e-12, so a
	// one-sweep budget cannot confirm convergence.
	b := mustSparse(2)
	b.Add(0, 0, 0.999)
	b.Add(0, 1, 0.001)
	b.Add(1, 0, 0.002)
	b.Add(1, 1, 0.998)
	_, err := SteadyStateGaussSeidel(context.Background(), b.Build(), IterOptions{MaxIter: 1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("expected ErrNoConvergence, got %v", err)
	}
}

func TestGaussSeidelReducibleChain(t *testing.T) {
	// The chain of TestGTHReducibleChain: state 1 is absorbing, so
	// 1/(1−P_11) has no finite value and the solver must say so.
	b := mustSparse(2)
	b.Add(0, 0, 0.5)
	b.Add(0, 1, 0.5)
	b.Add(1, 1, 1)
	pi, err := SteadyStateGaussSeidel(context.Background(), b.Build(), IterOptions{})
	if !errors.Is(err, ErrReducible) || !strings.Contains(err.Error(), "state 1 ") || pi != nil {
		t.Errorf("absorbing state: got pi=%v err=%v, want ErrReducible naming state 1", pi, err)
	}
	// Nothing flows into state 0; without the check it would settle at 0.
	b = mustSparse(3)
	b.Add(0, 1, 1)
	b.Add(1, 2, 1)
	b.Add(2, 1, 1)
	pi, err = SteadyStateGaussSeidel(context.Background(), b.Build(), IterOptions{})
	if !errors.Is(err, ErrReducible) || !strings.Contains(err.Error(), "state 0 ") || pi != nil {
		t.Errorf("unreachable state: got pi=%v err=%v, want ErrReducible naming state 0", pi, err)
	}
}

func TestSparseBuilderDuplicatesSummed(t *testing.T) {
	b := mustSparse(2)
	b.Add(0, 1, 0.25)
	b.Add(0, 1, 0.75)
	b.Add(1, 0, 1)
	s := b.Build()
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (duplicates summed)", s.NNZ())
	}
	if !approx(s.RowSum(0), 1, 1e-15) || !approx(s.RowSum(1), 1, 1e-15) {
		t.Errorf("row sums = %v, %v", s.RowSum(0), s.RowSum(1))
	}
}

func TestSparseVecMul(t *testing.T) {
	b := mustSparse(3)
	b.Add(0, 1, 2)
	b.Add(1, 2, 3)
	b.Add(2, 0, 4)
	s := b.Build()
	dst := make([]float64, 3)
	s.VecMul(dst, []float64{1, 10, 100})
	// x·S: dst[j] = sum_i x[i]*S[i][j] => dst = [400, 2, 30]
	want := []float64{400, 2, 30}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst = %v, want %v", dst, want)
			break
		}
	}
}

func TestSparseEmptyRowsHandled(t *testing.T) {
	b := mustSparse(4)
	b.Add(3, 0, 1) // rows 0..2 empty
	s := b.Build()
	for i := 0; i < 3; i++ {
		if s.RowSum(i) != 0 {
			t.Errorf("row %d sum = %v, want 0", i, s.RowSum(i))
		}
	}
	if s.RowSum(3) != 1 {
		t.Errorf("row 3 sum = %v, want 1", s.RowSum(3))
	}
}

// Property: for random irreducible chains, GTH output is a probability
// vector satisfying global balance.
func TestGTHPropertyQuick(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz%10)
		rng := rand.New(rand.NewSource(seed))
		p := randomStochastic(rng, n)
		orig := p.Clone()
		pi, err := SteadyStateGTH(p)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pi {
			if v < -1e-15 {
				return false
			}
			sum += v
		}
		if !approx(sum, 1, 1e-9) {
			return false
		}
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += pi[i] * orig.At(i, j)
			}
			if !approx(s, pi[j], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDenseRejectsBadDimension(t *testing.T) {
	if _, err := NewDense(0); err == nil {
		t.Error("NewDense(0): expected error")
	}
	if _, err := NewDense(-3); err == nil {
		t.Error("NewDense(-3): expected error")
	}
	if _, err := NewSparseBuilder(0); err == nil {
		t.Error("NewSparseBuilder(0): expected error")
	}
}

func TestSparseBuilderPanicsOutOfRange(t *testing.T) {
	// Out-of-range Add remains a panic: indices come from internal state
	// enumerations, so a bad index is an invariant violation, not input.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	mustSparse(2).Add(2, 0, 1)
}
