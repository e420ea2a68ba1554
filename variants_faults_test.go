package snoopmva

import (
	"context"
	"errors"
	"math"
	"testing"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// The heterogeneous model runs on the same fixed-point driver as Solve,
// so the driver's fault hooks, divergence guard and cancellation check
// reach it too.

// variantSolve is one solve of a non-flat model over a machine of n
// processors.
type variantSolve struct {
	name  string
	n     int
	solve func() error
}

// variantSolves returns a heterogeneous solve.
func variantSolves() []variantSolve {
	w := AppendixA(Sharing5)
	return []variantSolve{
		{"SolveGroups", 8, func() error {
			_, err := SolveGroups([]GroupSpec{
				{Name: "a", Count: 4, Protocol: WriteOnce(), Workload: w},
				{Name: "b", Count: 4, Protocol: Illinois(), Workload: w},
			})
			return err
		}},
	}
}

func TestVariantsDivergeUnderPoison(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		MVAPoison: func(iter int) (float64, bool) { return math.NaN(), iter == 3 },
	})
	defer restore()
	for _, v := range variantSolves() {
		err := v.solve()
		if !errors.Is(err, ErrDiverged) {
			t.Errorf("%s: err = %v, want ErrDiverged", v.name, err)
			continue
		}
		var de *mva.DivergenceError
		if !errors.As(err, &de) || de.Iteration != 3 || de.N != v.n {
			t.Errorf("%s: offending iterate = %+v, want iteration 3 at N=%d", v.name, de, v.n)
		}
	}
}

func TestVariantsStallWithoutConverging(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		MVAStall: func(int) bool { return true },
	})
	defer restore()
	for _, v := range variantSolves() {
		if err := v.solve(); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s: err = %v, want ErrNoConvergence", v.name, err)
		}
	}
}

// TestHeterogeneousPreCanceled checks the context before the first
// iterate: a 2+2 Illinois system converges in a handful of iterations,
// well inside the periodic check interval.
func TestHeterogeneousPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := mva.Model{Workload: workload.AppendixA(workload.Sharing5), Mods: protocol.Illinois.Mods}
	groups := []mva.Group{{Name: "a", Count: 2, Model: m}, {Name: "b", Count: 2, Model: m}}
	if _, err := mva.SolveHeterogeneousContext(ctx, groups, mva.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
