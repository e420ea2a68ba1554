package mva_test

import (
	"fmt"
	"math"
	"testing"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// variantIterBound is the most fixed-point iterations a default solve of
// the heterogeneous model may take on the grid below (measured 17; the
// damped loop the shared driver replaced took up to 156).
const variantIterBound = 32

// checkAgainstDamped solves one configuration at the default options and
// at an under-relaxed reference (Damping 0.5, a far tighter tolerance),
// and checks the default solve's iteration count and speedup against it.
// It returns the default solve's iterations and the relative speedup gap.
func checkAgainstDamped(t *testing.T, name string, solve func(mva.Options) (float64, int, error)) (int, float64) {
	t.Helper()
	speedup, iters, err := solve(mva.Options{})
	if err != nil {
		t.Fatalf("%s: default solve: %v", name, err)
	}
	ref, _, err := solve(mva.Options{Damping: 0.5, Tol: 1e-13})
	if err != nil {
		t.Fatalf("%s: damped reference: %v", name, err)
	}
	if iters > variantIterBound {
		t.Errorf("%s: default solve took %d iterations, bound %d", name, iters, variantIterBound)
	}
	rel := math.Abs(speedup-ref) / ref
	if rel > 1e-8 {
		t.Errorf("%s: speedup %v, damped reference %v (rel %.2g)", name, speedup, ref, rel)
	}
	return iters, rel
}

// TestHeterogeneousConvergesLikeFlat runs the heterogeneous model over
// two-group mixes of the Appendix A workloads: every sharing level, mod-set
// pairs whose indices agree mod 3, and groups of n and 1+n/2 processors.
func TestHeterogeneousConvergesLikeFlat(t *testing.T) {
	mods := protocol.AllModSets()
	worst, cases, worstRel := 0, 0, 0.0
	for _, s := range workload.Sharings() {
		for i, a := range mods {
			for j, b := range mods {
				if i%3 != j%3 {
					continue
				}
				for _, n := range []int{1, 2, 3, 5, 8, 16, 32, 64} {
					groups := []mva.Group{
						{Count: n, Model: mva.Model{Workload: workload.AppendixA(s), Mods: a}},
						{Count: 1 + n/2, Model: mva.Model{Workload: workload.AppendixA(s), Mods: b}},
					}
					name := fmt.Sprintf("sharing %v, %d×%v + %d×%v", s, n, a, 1+n/2, b)
					iters, rel := checkAgainstDamped(t, name, func(o mva.Options) (float64, int, error) {
						r, err := mva.SolveHeterogeneous(groups, o)
						return r.Speedup, r.Iterations, err
					})
					worst, worstRel, cases = max(worst, iters), max(worstRel, rel), cases+1
				}
			}
		}
	}
	t.Logf("%d mixes: worst %d iterations, worst speedup rel diff %.2g", cases, worst, worstRel)
}
