package mva

// Validation of the model against the numbers published in the paper.
// The derived-input formulas of [VeHo86] had to be reconstructed
// (DESIGN.md §4), so absolute speedups are checked against the published
// MVA values with a 10% tolerance band, while the paper's qualitative
// claims (protocol ordering, saturation, modification sensitivity) are
// checked tightly. EXPERIMENTS.md records the exact paper-vs-measured
// numbers produced by cmd/paperrepro.

import (
	"math"
	"testing"

	"snoopmva/internal/paperdata"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// paperNs is the processor-count axis of Table 4.1.
var paperNs = paperdata.Ns

// paperTolerance is the acceptance band for absolute agreement with the
// published tables given the reconstructed workload submodel.
const paperTolerance = 0.10

func checkTable(t *testing.T, name string, ms protocol.ModSet, want map[workload.Sharing][]float64) {
	t.Helper()
	var worst float64
	for sharing, row := range want {
		m := Model{Workload: workload.AppendixA(sharing), Mods: ms}
		for i, n := range paperNs {
			res, err := m.Solve(n, Options{})
			if err != nil {
				t.Fatalf("%s %v N=%d: %v", name, sharing, n, err)
			}
			rel := math.Abs(res.Speedup-row[i]) / row[i]
			if rel > worst {
				worst = rel
			}
			if rel > paperTolerance {
				t.Errorf("%s %v N=%d: speedup %.3f vs paper %.3f (rel err %.1f%%)",
					name, sharing, n, res.Speedup, row[i], rel*100)
			}
		}
	}
	t.Logf("%s: worst relative error vs paper = %.2f%%", name, worst*100)
}

func TestTable41aWriteOnce(t *testing.T) {
	checkTable(t, "Table 4.1(a)", 0, paperdata.Table41a)
}

func TestTable41bMod1(t *testing.T) {
	checkTable(t, "Table 4.1(b)", protocol.Mods(protocol.Mod1), paperdata.Table41b)
}

func TestTable41cMods14(t *testing.T) {
	checkTable(t, "Table 4.1(c)", protocol.Mods(protocol.Mod1, protocol.Mod4), paperdata.Table41c)
}

// Section 4.4: processing power for mods 1+2+3, nine processors, 5%
// sharing — paper reports 4.32 (MVA) and 4.1 (GTPN).
func TestProcessingPowerMods123(t *testing.T) {
	m := Model{
		Workload: workload.AppendixA(workload.Sharing5),
		Mods:     protocol.Mods(protocol.Mod1, protocol.Mod2, protocol.Mod3),
	}
	res, err := m.Solve(9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcessingPower < 4.32*(1-paperTolerance) || res.ProcessingPower > 4.32*(1+paperTolerance) {
		t.Errorf("processing power = %.3f, paper reports 4.32", res.ProcessingPower)
	}
	// Cross-check the paper's alternative formula: speedup × τ/(τ+T_supply).
	alt := res.Speedup * 2.5 / 3.5
	if math.Abs(alt-res.ProcessingPower) > 1e-9 {
		t.Errorf("power identities disagree: %v vs %v", res.ProcessingPower, alt)
	}
}

// Section 4.2: for six processors, Write-Once, 5% sharing, the MVA bus
// utilization is ~77% (GTPN ~81%); check we land in that neighborhood.
func TestBusUtilizationSixProcessors(t *testing.T) {
	m := Model{Workload: workload.AppendixA(workload.Sharing5)}
	res, err := m.Solve(6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBus < 0.67 || res.UBus > 0.87 {
		t.Errorf("U_bus = %.3f, paper reports ~0.77 (MVA) / ~0.81 (GTPN)", res.UBus)
	}
}

// Section 4.1: the protocols order WO <= WO+1 <= WO+1+4 at every sharing
// level and system size, and modification 4's advantage grows with sharing.
func TestProtocolOrdering(t *testing.T) {
	for _, sharing := range workload.Sharings() {
		for _, n := range paperNs {
			wo := mustSolve(t, Model{Workload: workload.AppendixA(sharing)}, n)
			m1 := mustSolve(t, Model{Workload: workload.AppendixA(sharing), Mods: protocol.Mods(protocol.Mod1)}, n)
			m14 := mustSolve(t, Model{Workload: workload.AppendixA(sharing), Mods: protocol.Mods(protocol.Mod1, protocol.Mod4)}, n)
			if m1.Speedup < wo.Speedup-1e-9 {
				t.Errorf("%v N=%d: WO+1 (%.3f) below WO (%.3f)", sharing, n, m1.Speedup, wo.Speedup)
			}
			if m14.Speedup < m1.Speedup-1e-9 {
				t.Errorf("%v N=%d: WO+1+4 (%.3f) below WO+1 (%.3f)", sharing, n, m14.Speedup, m1.Speedup)
			}
		}
	}
	// Mod 4 gain (WO+1+4 over WO+1) at N=20 grows with sharing level.
	gain := func(s workload.Sharing) float64 {
		m1 := mustSolve(t, Model{Workload: workload.AppendixA(s), Mods: protocol.Mods(protocol.Mod1)}, 20)
		m14 := mustSolve(t, Model{Workload: workload.AppendixA(s), Mods: protocol.Mods(protocol.Mod1, protocol.Mod4)}, 20)
		return m14.Speedup - m1.Speedup
	}
	g1, g5, g20 := gain(workload.Sharing1), gain(workload.Sharing5), gain(workload.Sharing20)
	if !(g1 <= g5 && g5 <= g20) {
		t.Errorf("mod 4 gain should grow with sharing: %.3f, %.3f, %.3f", g1, g5, g20)
	}
}

// Section 4.1: "Speedups for modifications 2 and 3 are nearly
// indistinguishable from the results for the protocols without these
// modifications" at the Appendix A workload.
func TestMods2And3NearNeutral(t *testing.T) {
	for _, sharing := range workload.Sharings() {
		base := mustSolve(t, Model{Workload: workload.AppendixA(sharing)}, 10)
		for _, m := range []protocol.Mod{protocol.Mod2, protocol.Mod3} {
			v := mustSolve(t, Model{Workload: workload.AppendixA(sharing), Mods: protocol.Mods(m)}, 10)
			rel := math.Abs(v.Speedup-base.Speedup) / base.Speedup
			if rel > 0.05 {
				t.Errorf("%v at %v changes speedup by %.1f%%, expected near-neutral",
					m, sharing, rel*100)
			}
		}
	}
}

// Section 4.4 / [ArBa86]: with amod_p = 0.95 the benefit of modification 2
// becomes comparable to modification 1 (1% sharing).
func TestAmodSensitivityMatchesArchibaldBaer(t *testing.T) {
	high := workload.AppendixA(workload.Sharing1)
	high.AmodPrivate = 0.95
	n := 10
	base := mustSolve(t, Model{Workload: high}, n)
	m1 := mustSolve(t, Model{Workload: high, Mods: protocol.Mods(protocol.Mod1)}, n)
	m2 := mustSolve(t, Model{Workload: high, Mods: protocol.Mods(protocol.Mod2)}, n)
	gain1 := m1.Speedup - base.Speedup
	gain2 := m2.Speedup - base.Speedup
	// With amod_p = 0.95 almost no private write hits broadcast, so the
	// two modifications' gains converge: they must be within a small
	// absolute band of each other (both near zero is acceptable).
	if math.Abs(gain1-gain2) > 0.15*base.Speedup {
		t.Errorf("amod_p=0.95: mod1 gain %.3f vs mod2 gain %.3f should be comparable", gain1, gain2)
	}
	// Contrast: at the default amod_p = 0.7, mod 1 clearly beats mod 2.
	def1 := mustSolve(t, Model{Workload: workload.AppendixA(workload.Sharing1), Mods: protocol.Mods(protocol.Mod1)}, n)
	def2 := mustSolve(t, Model{Workload: workload.AppendixA(workload.Sharing1), Mods: protocol.Mods(protocol.Mod2)}, n)
	defBase := mustSolve(t, Model{Workload: workload.AppendixA(workload.Sharing1)}, n)
	if (def1.Speedup - defBase.Speedup) <= 2*(def2.Speedup-defBase.Speedup) {
		t.Errorf("default amod_p: mod1 gain %.3f should dominate mod2 gain %.3f",
			def1.Speedup-defBase.Speedup, def2.Speedup-defBase.Speedup)
	}
}

// Section 4.3: the stress-test workload still solves and stays finite.
func TestStressWorkloadSolves(t *testing.T) {
	m := Model{Workload: workload.StressTest(), RawParams: true}
	for _, n := range []int{1, 4, 10, 50} {
		res, err := m.Solve(n, Options{})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if math.IsNaN(res.Speedup) || res.Speedup <= 0 || res.Speedup > float64(n) {
			t.Errorf("N=%d: speedup %v out of range", n, res.Speedup)
		}
	}
}

// Section 3.2: solution converges quickly. The paper reports < 15
// iterations; the Anderson-accelerated default solver meets that bound
// at its 1e-10 tolerance (measured max 14 at N=20 over every sharing
// level and valid mod set) and at table precision (measured max 10).
func TestConvergesQuickly(t *testing.T) {
	for _, sharing := range workload.Sharings() {
		for _, ms := range protocol.AllModSets() {
			m := Model{Workload: workload.AppendixA(sharing), Mods: ms}
			res, err := m.Solve(20, Options{})
			if err != nil {
				t.Fatalf("%v %v: %v", sharing, ms, err)
			}
			if res.Iterations >= 15 {
				t.Errorf("%v %v: %d iterations at tol 1e-10", sharing, ms, res.Iterations)
			}
			coarse, err := m.Solve(20, Options{Tol: 1e-3})
			if err != nil {
				t.Fatalf("%v %v coarse: %v", sharing, ms, err)
			}
			if coarse.Iterations >= 15 {
				t.Errorf("%v %v: %d iterations at paper precision",
					sharing, ms, coarse.Iterations)
			}
			// The coarse solution must already be close to the converged one.
			if math.Abs(coarse.Speedup-res.Speedup)/res.Speedup > 0.02 {
				t.Errorf("%v %v: coarse speedup %.4f far from converged %.4f",
					sharing, ms, coarse.Speedup, res.Speedup)
			}
		}
	}
}

// Table 4.1(c) note: speedup saturates — N=100 within a few percent of N=20.
func TestSaturationByTwenty(t *testing.T) {
	for _, sharing := range workload.Sharings() {
		m := Model{Workload: workload.AppendixA(sharing)}
		s20 := mustSolve(t, m, 20)
		s100 := mustSolve(t, m, 100)
		if math.Abs(s100.Speedup-s20.Speedup)/s20.Speedup > 0.05 {
			t.Errorf("%v: S(100)=%.3f vs S(20)=%.3f — should have saturated", sharing, s100.Speedup, s20.Speedup)
		}
	}
}

func mustSolve(t *testing.T, m Model, n int) Result {
	t.Helper()
	res, err := m.Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
