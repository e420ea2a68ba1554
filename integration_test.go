package snoopmva

// Cross-model integration: the repository's central claim is that three
// independent implementations of the same machine — analytic MVA, exact
// GTPN, and cycle-level simulation — agree. This test sweeps the full
// protocol family over all sharing levels at N=4 and checks the triangle
// of agreements in one place.

import (
	"context"
	"math"
	"testing"
)

func TestThreeModelTriangle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is slow")
	}
	const n = 4
	for _, sharing := range []Sharing{Sharing1, Sharing5, Sharing20} {
		w := AppendixA(sharing)
		for _, p := range Protocols() {
			p := p
			mvaRes, err := Solve(p, w, n)
			if err != nil {
				t.Fatalf("%v %d%%: mva: %v", p, int(sharing), err)
			}
			det, err := SolveDetailedContext(context.Background(), p, w, n)
			if err != nil {
				t.Fatalf("%v %d%%: gtpn: %v", p, int(sharing), err)
			}
			sim, err := SimulateContext(context.Background(), p, w, n, SimOptions{Seed: 101, MeasureCycles: 150000})
			if err != nil {
				t.Fatalf("%v %d%%: sim: %v", p, int(sharing), err)
			}
			// MVA vs exact GTPN: tight (shared mechanics, the paper's
			// headline claim).
			if rel := math.Abs(mvaRes.Speedup-det.Speedup) / det.Speedup; rel > 0.06 {
				t.Errorf("%v %d%%: MVA %.3f vs GTPN %.3f (rel %.1f%%)",
					p, int(sharing), mvaRes.Speedup, det.Speedup, rel*100)
			}
			// Simulation: independent workload realization (emergent amod,
			// csupply, replacement) — a looser band, but the same
			// neighborhood.
			if rel := math.Abs(mvaRes.Speedup-sim.Speedup) / sim.Speedup; rel > 0.15 {
				t.Errorf("%v %d%%: MVA %.3f vs sim %.3f (rel %.1f%%)",
					p, int(sharing), mvaRes.Speedup, sim.Speedup, rel*100)
			}
		}
	}
}

// The protocol ranking is the qualitative result every model must agree
// on. Check the ordering triple (WT <= WO <= Dragon) in all three models
// at once.
func TestThreeModelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is slow")
	}
	const n = 6
	w := AppendixA(Sharing5)
	type triple struct{ wt, wo, dragon float64 }
	var mvaT, detT, simT triple
	get := func(p Protocol) (float64, float64, float64) {
		m, err := Solve(p, w, n)
		if err != nil {
			t.Fatal(err)
		}
		d, err := SolveDetailedContext(context.Background(), p, w, n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SimulateContext(context.Background(), p, w, n, SimOptions{Seed: 55, MeasureCycles: 150000})
		if err != nil {
			t.Fatal(err)
		}
		return m.Speedup, d.Speedup, s.Speedup
	}
	mvaT.wt, detT.wt, simT.wt = get(WriteThrough())
	mvaT.wo, detT.wo, simT.wo = get(WriteOnce())
	mvaT.dragon, detT.dragon, simT.dragon = get(Dragon())
	for name, tr := range map[string]triple{"mva": mvaT, "gtpn": detT, "sim": simT} {
		if !(tr.wt < tr.wo && tr.wo < tr.dragon) {
			t.Errorf("%s ordering broken: WT=%.3f WO=%.3f Dragon=%.3f",
				name, tr.wt, tr.wo, tr.dragon)
		}
	}
}
