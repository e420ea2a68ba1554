package exp

import (
	"fmt"

	"snoopmva/internal/gtpnmodel"
	"snoopmva/internal/mva"
	"snoopmva/internal/paperdata"
	"snoopmva/internal/petri"
	"snoopmva/internal/protocol"
	"snoopmva/internal/tables"
	"snoopmva/internal/workload"
)

func init() {
	register(Experiment{
		ID:          "stress",
		Title:       "Section 4.3 — accuracy under stress tests",
		Description: "Unrealistic parameters maximizing cache interference; MVA stayed within 5% of the detailed model",
		Run:         runStress,
	})
	register(Experiment{
		ID:          "asymptotic",
		Title:       "Section 4.1 — asymptotic speedups at N=100",
		Description: "Large-system results unreachable by the detailed models; modification 4's benefit grows",
		Run:         runAsymptotic,
	})
	register(Experiment{
		ID:          "solvecost",
		Title:       "Section 3.2 — solution cost: MVA flat in N, detailed model explodes",
		Description: "Iteration counts vs reachability-graph sizes",
		Run:         runSolveCost,
	})
}

func runStress(cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "stress", Title: "Section 4.3 — accuracy under stress tests"}
	w := workload.StressTest()
	tb := tables.New("Stress-test speedups (rep=amod_sw=0, csupply=1, p_sw=0.2, h_sw=0.1)",
		"N", "our-mva", "our-gtpn", "rel err %")
	worst := 0.0
	maxN := cfg.GTPNMaxN
	if maxN < 2 {
		maxN = 2
	}
	for _, n := range []int{1, 2, 4, 6} {
		if n > maxN && n > 1 {
			continue
		}
		m, err := (mva.Model{Workload: w, RawParams: true}).Solve(n, mva.Options{
			// Isolate the submodels the GTPN shares (DESIGN.md §3).
			NoCacheInterference:  true,
			NoMemoryInterference: true,
		})
		if err != nil {
			return nil, err
		}
		g, err := gtpnmodel.SolveContext(cfg.Ctx, gtpnmodel.Config{Workload: w, RawParams: true, N: n}, petri.Options{})
		if err != nil {
			return nil, err
		}
		rel := relErr(m.Speedup, g.Speedup)
		if rel > worst {
			worst = rel
		}
		tb.AddRow(n, m.Speedup, g.Speedup, fmt.Sprintf("%.1f", rel*100))
	}
	rep.Tables = append(rep.Tables, tb)
	verdict := "PASS"
	if worst > paperdata.StressTolerance {
		verdict = "FAIL"
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper's bound: MVA within %.0f%% of the detailed model under stress; measured worst error %.1f%% — %s",
		paperdata.StressTolerance*100, worst*100, verdict))
	return rep, nil
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func runAsymptotic(cfg RunConfig) (*Report, error) {
	rep := &Report{ID: "asymptotic", Title: "Section 4.1 — asymptotic speedups"}
	tb := tables.New("Speedup at N=20 vs N=100 (saturation check)",
		"protocol", "sharing", "S(20)", "S(100)", "asymptotic bracket")
	configs := []struct {
		label string
		ms    protocol.ModSet
	}{
		{"WO", 0},
		{"WO+1", protocol.Mods(protocol.Mod1)},
		{"WO+1+4", protocol.Mods(protocol.Mod1, protocol.Mod4)},
	}
	for _, c := range configs {
		for _, s := range workload.Sharings() {
			m := mva.Model{Workload: workload.AppendixA(s), Mods: c.ms}
			r20, err := m.Solve(20, mva.Options{})
			if err != nil {
				return nil, err
			}
			r100, err := m.Solve(100, mva.Options{})
			if err != nil {
				return nil, err
			}
			lo, hi, err := m.AsymptoticSpeedup()
			if err != nil {
				return nil, err
			}
			tb.AddRow(c.label, s.String(), r20.Speedup, r100.Speedup,
				fmt.Sprintf("[%.2f, %.2f]", lo, hi))
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"the modification-4 asymptote exceeds modification 1's by a growing margin as sharing rises — the new result the MVA's large-N capability exposed (Section 4.1)")
	return rep, nil
}

func runSolveCost(cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "solvecost", Title: "Section 3.2 — solution cost scaling"}
	tb := tables.New("Solution cost vs system size (Write-Once, 5% sharing)",
		"N", "mva-iterations", "gtpn-states (lumped)", "gtpn-states (per-processor)")
	w := workload.AppendixA(workload.Sharing5)
	for _, n := range []int{1, 2, 3, 4, 6, 10, 100, 1000} {
		m, err := (mva.Model{Workload: w}).Solve(n, mva.Options{})
		if err != nil {
			return nil, err
		}
		lumped, perProc := "", ""
		if n <= cfg.GTPNMaxN {
			c := gtpnmodel.Config{Workload: w, N: n}
			g, err := gtpnmodel.SolveContext(cfg.Ctx, c, petri.Options{})
			if err != nil {
				return nil, err
			}
			lumped = fmt.Sprintf("%d", g.States)
			if n <= 4 {
				pp, err := gtpnmodel.StateCountContext(cfg.Ctx, c, true, petri.Options{MaxStates: 2000000})
				if err != nil {
					return nil, err
				}
				perProc = fmt.Sprintf("%d", pp)
			}
		}
		tb.AddRow(n, m.Iterations, lumped, perProc)
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"the MVA solves in microseconds independent of N (the paper: seconds on a 1988 MicroVAX vs hours for the detailed model); the per-processor net reproduces the exponential state growth that made the original GTPN impractical past ten or twelve processors")
	return rep, nil
}
