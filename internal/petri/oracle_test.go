package petri_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"snoopmva/internal/gtpnmodel"
	"snoopmva/internal/petri"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// perturbed scales w's think time, miss rates and write-back and supply
// probabilities by independent factors in [0.9, 1.1], keeping every
// probability in [0, 1].
func perturbed(rng *rand.Rand, w workload.Params) workload.Params {
	scale := func() float64 { return 0.9 + 0.2*rng.Float64() }
	f := func(v float64) float64 { return math.Min(1, v*scale()) }
	w.Tau *= scale()
	w.HPrivate = 1 - f(1-w.HPrivate)
	w.HSro = 1 - f(1-w.HSro)
	w.HSw = 1 - f(1-w.HSw)
	w.CsupplySw = f(w.CsupplySw)
	w.RepP = f(w.RepP)
	w.RepSw = f(w.RepSw)
	return w
}

func sumAt(v []float64, ids []petri.TransID) float64 {
	var s float64
	for _, t := range ids {
		s += v[t]
	}
	return s
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }

// The equivalence oracle for the embedded-chain solver: on every named
// protocol's net, over a seeded perturbation of its Appendix A workload,
// N = 1..4 and with and without memory modeling, the Gauss–Seidel
// solution behind gtpnmodel.Solve must match dense GTH elimination of the
// same chain in π, Speedup and bus utilization.
func TestGaussSeidelMatchesGTHOnProtocolNets(t *testing.T) {
	const tol = 1e-9
	var worst float64
	rng := rand.New(rand.NewSource(13))
	for _, p := range protocol.Named() {
		w := perturbed(rng, workload.AppendixA(workload.Sharing(rng.Intn(3))))
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: perturbed workload: %v", p.Name, err)
		}
		for n := 1; n <= 4; n++ {
			for _, mem := range []bool{false, true} {
				name := fmt.Sprintf("%s N=%d memory=%v", p.Name, n, mem)
				cfg := gtpnmodel.Config{Workload: w, Mods: p.Mods, WriteThroughBase: p.WriteThroughBase, N: n, ModelMemory: mem}
				net, h, err := gtpnmodel.Build(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				gs, gth, piGS, piGTH, err := petri.AnalyzeBoth(net, petri.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range piGS {
					worst = math.Max(worst, math.Abs(piGS[i]-piGTH[i]))
					if math.Abs(piGS[i]-piGTH[i]) > tol {
						t.Fatalf("%s: π[%d] = %v by Gauss–Seidel, %v by GTH", name, i, piGS[i], piGTH[i])
					}
				}
				res, err := gtpnmodel.Solve(cfg, petri.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.States != len(piGS) {
					t.Fatalf("%s: Solve saw %d states, the oracle %d", name, res.States, len(piGS))
				}
				// Speedup is the completion rate times a constant, so GTH's
				// speedup is Solve's scaled by the ratio of the two rates.
				xGS, xGTH := sumAt(gs.Throughput, h.Completion), sumAt(gth.Throughput, h.Completion)
				eS, eU := relErr(res.Speedup, res.Speedup*xGTH/xGS), relErr(res.UBus, sumAt(gth.TimeAvgInFlight, h.BusServe))
				worst = math.Max(worst, math.Max(eS, eU))
				if eS > tol {
					t.Errorf("%s: Speedup differs from GTH by %.3g relative", name, eS)
				}
				if eU > tol {
					t.Errorf("%s: UBus %v differs from GTH by %.3g relative", name, res.UBus, eU)
				}
			}
		}
	}
	t.Logf("largest π difference or relative Speedup/UBus difference: %.3g", worst)
}

// The marking-keyed resolver must build every named protocol's lumped net
// at N = 1..4, with and without memory modeling, bit for bit as the
// raw-state reference does: the same state ids, rows, firing counts and
// Gauss–Seidel solution. (Random nets are compared in reference_test.go.)
func TestResolverMatchesRawStateReferenceOnProtocolNets(t *testing.T) {
	w := workload.AppendixA(workload.Sharing5)
	for _, p := range protocol.Named() {
		for n := 1; n <= 4; n++ {
			for _, mem := range []bool{false, true} {
				cfg := gtpnmodel.Config{Workload: w, Mods: p.Mods, WriteThroughBase: p.WriteThroughBase, N: n, ModelMemory: mem}
				net, _, err := gtpnmodel.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok, err := petri.MatchesReference(net, petri.Options{}, 0); err != nil || !ok {
					t.Errorf("%s N=%d memory=%v: solved %v, %v", p.Name, n, mem, ok, err)
				}
			}
		}
	}
}
