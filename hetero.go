package snoopmva

import (
	"fmt"
	"io"

	"snoopmva/internal/mva"
)

// GroupSpec describes one homogeneous processor group of a heterogeneous
// system: Count processors running Workload under Protocol, all sharing
// one bus and memory with the other groups.
type GroupSpec struct {
	Name     string
	Count    int
	Protocol Protocol
	Workload Workload
}

// GroupResult is one group's slice of a heterogeneous solution.
type GroupResult struct {
	Name    string
	Count   int
	R       float64
	Speedup float64
}

// HeteroResult holds the joint solution of SolveGroups.
type HeteroResult struct {
	PerGroup        []GroupResult
	TotalProcessors int
	Speedup         float64
	ProcessingPower float64
	BusUtilization  float64
	BusWait         float64
	MemUtilization  float64
	Iterations      int
}

// SolveGroups runs the multi-class generalization of the paper's MVA:
// several processor groups with different workloads (and even different
// protocols) share one bus. With a single group it reduces to Solve.
func SolveGroups(groups []GroupSpec) (res HeteroResult, err error) {
	defer guard(&err)
	in := make([]mva.Group, 0, len(groups))
	for i, g := range groups {
		m, err := model(g.Protocol, g.Workload, Timing{})
		if err != nil {
			return HeteroResult{}, fmt.Errorf("snoopmva: group %d: %w", i, err)
		}
		in = append(in, mva.Group{Name: g.Name, Count: g.Count, Model: m})
	}
	r, err := mva.SolveHeterogeneous(in, mva.Options{})
	if err != nil {
		return HeteroResult{}, err
	}
	out := HeteroResult{
		TotalProcessors: r.TotalProcessors,
		Speedup:         r.Speedup,
		ProcessingPower: r.ProcessingPower,
		BusUtilization:  r.UBus,
		BusWait:         r.WBus,
		MemUtilization:  r.UMem,
		Iterations:      r.Iterations,
	}
	for _, g := range r.PerGroup {
		out.PerGroup = append(out.PerGroup, GroupResult{
			Name: g.Name, Count: g.Count, R: g.R, Speedup: g.Speedup,
		})
	}
	return out, nil
}

// Explain solves the configuration and writes an equation-by-equation
// breakdown of the result (derived inputs, each of equations (1)-(13),
// interference submodels) to w — the model made auditable.
func Explain(w io.Writer, p Protocol, wl Workload, n int) (err error) {
	defer guard(&err)
	m, err := model(p, wl, Timing{})
	if err != nil {
		return err
	}
	res, err := m.Solve(n, mva.Options{})
	if err != nil {
		return err
	}
	return mva.Explain(w, m, res)
}
