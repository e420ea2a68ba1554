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
		piS, err := gaussSeidel(d, IterOptions{})
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
	d := newDense(2)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	pi, err := gaussSeidel(d, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pi[0], 0.5, 1e-9) || !approx(pi[1], 0.5, 1e-9) {
		t.Errorf("pi = %v, want [0.5 0.5]", pi)
	}
	d = newDense(3)
	d.Set(0, 1, 1)
	d.Set(1, 0, 0.5)
	d.Set(1, 2, 0.5)
	d.Set(2, 1, 1)
	pi, err = gaussSeidel(d, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pi[0], 0.25, 1e-9) || !approx(pi[1], 0.5, 1e-9) || !approx(pi[2], 0.25, 1e-9) {
		t.Errorf("pi = %v, want [0.25 0.5 0.25]", pi)
	}
}

func TestGaussSeidelRejectsBadInput(t *testing.T) {
	d := newDense(2)
	d.Set(0, 0, 0.7) // row 0 sums to 0.7; row 1 sums to 0
	if _, err := gaussSeidel(d, IterOptions{}); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("expected ErrNotStochastic, got %v", err)
	}
	for _, c := range []struct {
		name  string
		n     int
		cols  []int32
		probs []float64
	}{
		{"zero dimension", 0, nil, nil},
		{"probabilities/columns mismatch", 1, []int32{0}, nil},
		{"column out of range", 2, []int32{2}, []float64{1}},
		{"negative column", 2, []int32{-1}, []float64{1}},
	} {
		row := func(int) ([]int32, []float64) { return c.cols, c.probs }
		if _, err := SteadyStateGaussSeidel(context.Background(), c.n, row, IterOptions{}); err == nil || errors.Is(err, ErrNotStochastic) {
			t.Errorf("Gauss–Seidel accepted a malformed chain (%s): %v", c.name, err)
		}
	}
}

func TestGaussSeidelNoConvergence(t *testing.T) {
	// Slowly mixing asymmetric chain: one sweep moves the uniform start to
	// the stationary point [2/3 1/3], a change far above 1e-12, so a
	// one-sweep budget cannot confirm convergence.
	_, err := gaussSeidel(twoState(0.001, 0.002), IterOptions{MaxIter: 1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("expected ErrNoConvergence, got %v", err)
	}
}

func TestGaussSeidelReducibleChain(t *testing.T) {
	// The chain of TestGTHReducibleChain: state 1 is absorbing, so
	// 1/(1−P_11) has no finite value and the solver must say so.
	d := newDense(2)
	d.Set(0, 0, 0.5)
	d.Set(0, 1, 0.5)
	d.Set(1, 1, 1)
	pi, err := gaussSeidel(d, IterOptions{})
	if !errors.Is(err, ErrReducible) || !strings.Contains(err.Error(), "state 1 ") || pi != nil {
		t.Errorf("absorbing state: got pi=%v err=%v, want ErrReducible naming state 1", pi, err)
	}
	// Nothing flows into state 0; without the check it would settle at 0.
	d = newDense(3)
	d.Set(0, 1, 1)
	d.Set(1, 2, 1)
	d.Set(2, 1, 1)
	pi, err = gaussSeidel(d, IterOptions{})
	if !errors.Is(err, ErrReducible) || !strings.Contains(err.Error(), "state 0 ") || pi != nil {
		t.Errorf("unreachable state: got pi=%v err=%v, want ErrReducible naming state 0", pi, err)
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
}
