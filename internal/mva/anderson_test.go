package mva

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// andersonIterBound pins the worst accelerated-rung iteration count over
// the oracle test's cases (measured 49 on amd64; plain substitution needs
// up to its 10000-iteration budget on the same cases). A solve that needs
// more means the safeguards stopped bounding the accelerated iteration.
const andersonIterBound = 64

// oracleModel draws a random configuration: a perturbed Appendix A or
// stress-test workload under a random valid mod set (or the write-through
// base), random ablation switches and bus model, at N in 1..256.
func oracleModel(t *testing.T, rng *rand.Rand, modSets []protocol.ModSet) (Model, Options, int) {
	t.Helper()
	sharings := workload.Sharings()
	for attempt := 0; attempt < 100; attempt++ {
		// One draw in four perturbs the stress test, which is solved
		// with its parameters as given.
		k := rng.Intn(len(sharings) + 1)
		raw := k == len(sharings)
		w := workload.StressTest()
		if !raw {
			w = workload.AppendixA(sharings[k])
		}
		jitter := func(x float64) float64 { return x * (0.7 + 0.6*rng.Float64()) }
		prob := func(x float64) float64 { return math.Min(0.99, math.Max(0.01, jitter(x))) }
		w.Tau = 1 + jitter(w.Tau)
		w.PPrivate, w.PSro, w.PSw = prob(w.PPrivate), prob(w.PSro), prob(w.PSw)
		sum := w.PPrivate + w.PSro + w.PSw
		w.PPrivate, w.PSro, w.PSw = w.PPrivate/sum, w.PSro/sum, w.PSw/sum
		w.HPrivate, w.HSro, w.HSw = prob(w.HPrivate), prob(w.HSro), prob(w.HSw)
		w.RPrivate, w.RSw = prob(w.RPrivate), prob(w.RSw)
		w.AmodPrivate, w.AmodSw = prob(w.AmodPrivate), prob(w.AmodSw)
		w.CsupplySro, w.CsupplySw = prob(w.CsupplySro), prob(w.CsupplySw)
		w.WbCsupply = prob(w.WbCsupply)
		w.RepP, w.RepSw = prob(w.RepP), prob(w.RepSw)
		if w.Validate() != nil {
			continue
		}
		m := Model{Workload: w, RawParams: raw, Mods: modSets[rng.Intn(len(modSets))]}
		if rng.Intn(8) == 0 {
			m = Model{Workload: w, WriteThroughBase: true}
		}
		coin := func() bool { return rng.Intn(4) == 0 }
		o := Options{
			NoCacheInterference:  coin(),
			NoMemoryInterference: coin(),
			NoResidualLife:       coin(),
			ExponentialBus:       coin(),
			NoArrivalCorrection:  coin(),
			SplitTransactionBus:  coin(),
		}
		return m, o, 1 + rng.Intn(256)
	}
	t.Fatal("oracle generator failed to produce a valid workload in 100 attempts")
	return Model{}, Options{}, 0
}

// TestAndersonMatchesPlainOracle is the equivalence oracle for the
// accelerated default solver. Over seeded random configurations, the
// paper's plain substitution (explicit Damping 1) at a tolerance far below
// the default is the reference: wherever it converges, the default solve
// must converge too, on its first (accelerated) rung, within the pinned
// iteration bound, and land on the same speedup.
func TestAndersonMatchesPlainOracle(t *testing.T) {
	cases := 10000
	if testing.Short() {
		cases = 1000
	}
	rng := rand.New(rand.NewSource(14))
	modSets := protocol.AllModSets()
	var worstRel float64
	worstIter, fastIters, plainIters, compared := 0, 0, 0, 0
	for i := 0; i < cases; i++ {
		m, o, n := oracleModel(t, rng, modSets)
		plainOpts := o
		plainOpts.Damping, plainOpts.Tol = 1, 1e-13
		plain, perr := m.Solve(n, plainOpts)
		if perr != nil && !errors.Is(perr, ErrNoConvergence) {
			t.Fatalf("case %d (%v N=%d %+v): plain solve: %v", i, m.Mods, n, o, perr)
		}
		fast, ferr := m.Solve(n, o)
		if ferr != nil {
			if perr == nil {
				t.Errorf("case %d (%v N=%d %+v): accelerated solve failed where plain converged: %v", i, m.Mods, n, o, ferr)
			}
			continue
		}
		// The default solve must come from its first rung: the iteration
		// bound is that rung's.
		firstOpts := o
		firstOpts.Damping = 1
		sc := acquireScratch()
		first, err := m.solveOnce(context.Background(), n, firstOpts, true, sc)
		sc.release()
		if err != nil || math.Float64bits(first.Speedup) != math.Float64bits(fast.Speedup) {
			t.Errorf("case %d (%v N=%d %+v): default solve fell off the accelerated rung (%v)", i, m.Mods, n, o, err)
		}
		worstIter = max(worstIter, fast.Iterations)
		if perr != nil {
			continue
		}
		compared++
		plainIters += plain.Iterations
		fastIters += fast.Iterations
		rel := math.Abs(fast.Speedup-plain.Speedup) / plain.Speedup
		worstRel = math.Max(worstRel, rel)
		if rel > 1e-8 {
			t.Errorf("case %d (%v N=%d %+v): speedup %v, plain %v (rel %.2g)", i, m.Mods, n, o, fast.Speedup, plain.Speedup, rel)
		}
	}
	if worstIter > andersonIterBound {
		t.Errorf("worst accelerated solve took %d iterations, bound %d", worstIter, andersonIterBound)
	}
	t.Logf("%d cases, %d where plain converged: mean iterations plain %.1f, accelerated %.1f; worst accelerated %d; worst speedup rel diff %.2g",
		cases, compared, float64(plainIters)/float64(compared), float64(fastIters)/float64(compared), worstIter, worstRel)
}
