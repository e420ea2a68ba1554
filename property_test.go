package snoopmva

import (
	"context"
	"math/rand"
	"testing"

	"snoopmva/internal/stats"
)

// This file is the property/metamorphic suite: instead of pinning point
// values (golden_regression_test.go does that), it asserts relations the
// paper derives analytically — protocol-modification dominance, speedup
// monotonicity below bus saturation, utilization bounds — over a cloud of
// randomized valid workloads, plus the implementation's own metamorphic
// contracts (cache-on ≡ cache-off). The
// generator perturbs the Appendix A parameters rather than sampling
// uniformly: the paper's invariants are claims about plausible memory
// system behaviour, not about arbitrary points of the parameter cube.

// randWorkload perturbs a random Appendix A sharing level with bounded
// multiplicative noise, renormalizes the stream partition, and retries
// until Validate accepts the result. Deterministic per rng state.
func randWorkload(t *testing.T, rng *rand.Rand) Workload {
	t.Helper()
	sharings := []Sharing{Sharing1, Sharing5, Sharing20}
	for attempt := 0; attempt < 100; attempt++ {
		w := AppendixA(sharings[rng.Intn(len(sharings))])
		jitter := func(x float64) float64 { return x * (0.7 + 0.6*rng.Float64()) }
		prob := func(x float64) float64 {
			x = jitter(x)
			if x < 0.01 {
				x = 0.01
			}
			if x > 0.99 {
				x = 0.99
			}
			return x
		}
		w.Tau = 1 + jitter(w.Tau)
		w.PPrivate, w.PSro, w.PSw = prob(w.PPrivate), prob(w.PSro), prob(w.PSw)
		sum := w.PPrivate + w.PSro + w.PSw
		w.PPrivate /= sum
		w.PSro /= sum
		w.PSw /= sum
		w.HPrivate, w.HSro, w.HSw = prob(w.HPrivate), prob(w.HSro), prob(w.HSw)
		w.RPrivate, w.RSw = prob(w.RPrivate), prob(w.RSw)
		w.AmodPrivate, w.AmodSw = prob(w.AmodPrivate), prob(w.AmodSw)
		w.CsupplySro, w.CsupplySw = prob(w.CsupplySro), prob(w.CsupplySw)
		w.WbCsupply = prob(w.WbCsupply)
		w.RepP, w.RepSw = prob(w.RepP), prob(w.RepSw)
		if w.Validate() == nil {
			return w
		}
	}
	t.Fatal("workload generator failed to produce a valid sample in 100 attempts")
	return Workload{}
}

func propertyRounds(t *testing.T) int {
	if testing.Short() {
		return 8
	}
	return 40
}

// TestPropertyModificationDominance: Section 4.1's ordering — the paper
// modifications remove bus work, so speedup must not decrease along
// WO → WO+1 → WO+1+2+3. What the model actually delivers, and what this
// test pins:
//
//   - On the Appendix A workloads, modification 1 strictly helps at every
//     sharing level and size; modifications 2+3 on top of it can wash out
//     (they trade write-through traffic for ownership transfers, and with
//     the Appendix A per-protocol parameter adjustments the measured dip
//     is ≤0.7%). The ladder is asserted strict for WO→WO+1 and within 1%
//     end to end.
//   - On arbitrary random workloads the ordering is asserted within 5%:
//     the MVA's documented few-percent approximation error plus the
//     parameter adjustments admit small inversions (measured worst ≈2%
//     below saturation), but a modification must never substantially hurt.
func TestPropertyModificationDominance(t *testing.T) {
	ladder := []Protocol{WriteOnce(), WithMods(1), Illinois()}

	for _, s := range []Sharing{Sharing1, Sharing5, Sharing20} {
		w := AppendixA(s)
		for _, n := range []int{2, 8, 32, 100} {
			wo, err := Solve(WriteOnce(), w, n)
			if err != nil {
				t.Fatalf("WO sharing %d%% N=%d: %v", s, n, err)
			}
			wo1, err := Solve(WithMods(1), w, n)
			if err != nil {
				t.Fatalf("WO+1 sharing %d%% N=%d: %v", s, n, err)
			}
			ill, err := Solve(Illinois(), w, n)
			if err != nil {
				t.Fatalf("Illinois sharing %d%% N=%d: %v", s, n, err)
			}
			if wo1.Speedup < wo.Speedup && !stats.ApproxEq(wo1.Speedup, wo.Speedup, 1e-6) {
				t.Errorf("sharing %d%% N=%d: WO+1 speedup %.9f < WO %.9f", s, n, wo1.Speedup, wo.Speedup)
			}
			if ill.Speedup < wo1.Speedup*(1-0.01) {
				t.Errorf("sharing %d%% N=%d: WO+1+2+3 speedup %.9f more than 1%% below WO+1 %.9f",
					s, n, ill.Speedup, wo1.Speedup)
			}
			if ill.Speedup < wo.Speedup && !stats.ApproxEq(ill.Speedup, wo.Speedup, 1e-6) {
				t.Errorf("sharing %d%% N=%d: WO+1+2+3 speedup %.9f < WO %.9f", s, n, ill.Speedup, wo.Speedup)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < propertyRounds(t); round++ {
		w := randWorkload(t, rng)
		for _, n := range []int{2, 8, 32} {
			prev := -1.0
			for _, p := range ladder {
				r, err := Solve(p, w, n)
				if err != nil {
					t.Fatalf("round %d %v N=%d: %v", round, p, n, err)
				}
				if r.Speedup < prev*(1-0.05) {
					t.Errorf("round %d N=%d: %v speedup %.9f more than 5%% below predecessor %.9f (workload %+v)",
						round, n, p, r.Speedup, prev, w)
				}
				if r.Speedup > prev {
					prev = r.Speedup
				}
			}
		}
	}
}

// TestPropertySpeedupMonotoneBelowSaturation: adding processors cannot
// slow the system down while the bus still has headroom. Near saturation
// the paper's own Table 4.1(b) documents a small approximate-MVA
// overshoot, so the assertion deliberately stops once utilization
// approaches one.
func TestPropertySpeedupMonotoneBelowSaturation(t *testing.T) {
	const saturated = 0.9
	rng := rand.New(rand.NewSource(2))
	ns := make([]int, 32)
	for i := range ns {
		ns[i] = i + 1
	}
	for round := 0; round < propertyRounds(t); round++ {
		w := randWorkload(t, rng)
		rs, err := Sweep(context.Background(), Direct, WriteOnce(), w, ns, 1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].BusUtilization >= saturated {
				break // plateau region: overshoot artifact is documented
			}
			if rs[i].Speedup < rs[i-1].Speedup && !stats.ApproxEq(rs[i].Speedup, rs[i-1].Speedup, 1e-6) {
				t.Errorf("round %d: speedup fell %.9f → %.9f from N=%d to N=%d at U_bus=%.3f (workload %+v)",
					round, rs[i-1].Speedup, rs[i].Speedup, ns[i-1], ns[i], rs[i].BusUtilization, w)
			}
		}
	}
}

// TestPropertyUtilizationBounds: equations (7) and (12) are utilizations —
// every solved point must keep them inside [0,1] and all waits and
// response times non-negative.
func TestPropertyUtilizationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < propertyRounds(t); round++ {
		w := randWorkload(t, rng)
		for _, p := range []Protocol{WriteOnce(), Synapse(), Berkeley(), Illinois(), Dragon()} {
			for _, n := range []int{1, 3, 16, 100} {
				r, err := Solve(p, w, n)
				if err != nil {
					t.Fatalf("round %d %v N=%d: %v", round, p, n, err)
				}
				if r.BusUtilization < 0 || r.BusUtilization > 1 {
					t.Errorf("round %d %v N=%d: U_bus = %v outside [0,1]", round, p, n, r.BusUtilization)
				}
				if r.MemUtilization < 0 || r.MemUtilization > 1 {
					t.Errorf("round %d %v N=%d: U_mem = %v outside [0,1]", round, p, n, r.MemUtilization)
				}
				if r.BusWait < 0 || r.MemWait < 0 || r.R <= 0 || r.Speedup <= 0 {
					t.Errorf("round %d %v N=%d: negative measure in %+v", round, p, n, r)
				}
				if r.ProcessingPower < 0 || r.ProcessingPower > float64(n) {
					t.Errorf("round %d %v N=%d: processing power %v outside [0,N]", round, p, n, r.ProcessingPower)
				}
			}
		}
	}
}

// TestPropertyCacheTransparent: the memo cache must be undetectable —
// CachedSolver.Solve agrees bitwise with the package-level Solve on both
// the miss path (stores what the solver returned) and the hit path
// (returns what it stored).
func TestPropertyCacheTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cs := NewCachedSolver(0)
	for round := 0; round < propertyRounds(t); round++ {
		w := randWorkload(t, rng)
		p := []Protocol{WriteOnce(), Illinois(), Dragon()}[rng.Intn(3)]
		n := 1 + rng.Intn(64)
		direct, err := Solve(p, w, n)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for pass := 0; pass < 2; pass++ { // miss, then hit
			got, err := cs.Solve(p, w, n)
			if err != nil {
				t.Fatalf("round %d pass %d: %v", round, pass, err)
			}
			if got != direct {
				t.Errorf("round %d pass %d: cached %+v != direct %+v", round, pass, got, direct)
			}
		}
	}
	if s := cs.Stats(); s.Hits != s.Misses {
		t.Errorf("miss/hit passes out of balance: %+v", s)
	}
}
