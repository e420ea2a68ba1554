package mva_test

import (
	"fmt"
	"math"
	"testing"

	"snoopmva/internal/hierarchy"
	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// variantIterBound is the most fixed-point iterations a default solve of
// the heterogeneous or two-level model may take on the grids below
// (measured 17 and 22; the damped loops the shared driver replaced took
// up to 156 and 200).
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

// TestHierarchicalConvergesLikeFlat runs the two-level model over every
// sharing level and mod set, C×K shapes up to 8×32, and global traffic
// from none to all of it on a bus up to four times slower.
func TestHierarchicalConvergesLikeFlat(t *testing.T) {
	traffic := []struct{ miss, bc, speed float64 }{
		{0, 0, 1}, {.1, .05, 1}, {.3, .2, 1}, {.6, .5, 2}, {1, 1, 4},
	}
	worst, cases, worstRel := 0, 0, 0.0
	for _, s := range workload.Sharings() {
		for _, m := range protocol.AllModSets() {
			for _, c := range []int{1, 2, 4, 8} {
				for _, k := range []int{1, 2, 4, 8, 16, 32} {
					for _, tr := range traffic {
						cfg := hierarchy.Config{
							Clusters: c, PerCluster: k, Workload: workload.AppendixA(s), Mods: m,
							GlobalMissFraction: tr.miss, GlobalBcFraction: tr.bc, GlobalSpeedRatio: tr.speed,
						}
						name := fmt.Sprintf("sharing %v, %v, %dx%d, traffic %+v", s, m, c, k, tr)
						iters, rel := checkAgainstDamped(t, name, func(o mva.Options) (float64, int, error) {
							r, err := hierarchy.Solve(cfg, o)
							return r.Speedup, r.Iterations, err
						})
						worst, worstRel, cases = max(worst, iters), max(worstRel, rel), cases+1
					}
				}
			}
		}
	}
	t.Logf("%d configurations: worst %d iterations, worst speedup rel diff %.2g", cases, worst, worstRel)
}
