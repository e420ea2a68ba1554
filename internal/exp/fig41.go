package exp

import (
	"fmt"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/tables"
	"snoopmva/internal/workload"
)

// tablesNew builds the standard Table 4.1 layout.
func tablesNew(title string) *tables.Table {
	return tables.New(title,
		"sharing", "N", "paper-mva", "our-mva", "paper-gtpn", "our-gtpn", "our-sim")
}

func init() {
	register(Experiment{
		ID:          "fig4.1",
		Title:       "Figure 4.1 — the mean value analysis performance results",
		Description: "Speedup vs processors for WO, WO+1 (1/5/20% sharing) and WO+1+4 (5%)",
		Run:         runFig41,
	})
}

func runFig41(cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig4.1", Title: "Figure 4.1 — the mean value analysis performance results"}
	plot := tables.NewPlot("Figure 4.1: speedup vs number of processors", "processors", "speedup")
	ns := make([]int, 0, 20)
	for n := 1; n <= 20; n++ {
		ns = append(ns, n)
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	type curve struct {
		label   string
		ms      protocol.ModSet
		sharing workload.Sharing
	}
	curves := []curve{
		{"WO 1%", 0, workload.Sharing1},
		{"WO 5%", 0, workload.Sharing5},
		{"WO 20%", 0, workload.Sharing20},
		{"WO+1 1%", protocol.Mods(protocol.Mod1), workload.Sharing1},
		{"WO+1 5%", protocol.Mods(protocol.Mod1), workload.Sharing5},
		{"WO+1 20%", protocol.Mods(protocol.Mod1), workload.Sharing20},
		// Only the 5% curve is drawn for mods 1+4 in the paper; the other
		// two are nearly identical (Table 4.1(c)).
		{"WO+1+4 5%", protocol.Mods(protocol.Mod1, protocol.Mod4), workload.Sharing5},
	}
	tb := tables.New("Figure 4.1 series", "curve", "N", "speedup")
	for _, c := range curves {
		m := mva.Model{Workload: workload.AppendixA(c.sharing), Mods: c.ms}
		ys := make([]float64, len(ns))
		for i, n := range ns {
			r, err := m.SolveContext(cfg.Ctx, n, mva.Options{})
			if err != nil {
				return nil, fmt.Errorf("fig4.1 %s at N=%d: %w", c.label, n, err)
			}
			ys[i] = r.Speedup
			tb.AddRow(c.label, r.N, r.Speedup)
		}
		if err := plot.Add(tables.Series{Label: c.label, X: xs, Y: ys}); err != nil {
			return nil, err
		}
	}
	rep.Plots = append(rep.Plots, plot)
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"modifications 2 and 3 are omitted from the figure, as in the paper: their curves are nearly indistinguishable from the corresponding base protocols")
	return rep, nil
}
