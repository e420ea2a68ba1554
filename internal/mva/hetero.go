package mva

import (
	"context"
	"errors"
	"fmt"
	"math"

	"snoopmva/internal/workload"
)

// Group is one homogeneous set of processors in a heterogeneous system:
// Count processors all running the same workload. Different groups share
// the bus and memory but may differ arbitrarily in workload parameters —
// a multi-class generalization of the paper's single-class model, built
// from the same equations with per-class arrival-theorem terms.
type Group struct {
	Name  string
	Count int
	Model Model
}

// HeteroResult holds the multi-group solution.
type HeteroResult struct {
	// PerGroup results: R and speedup per processor of each group.
	PerGroup []GroupResult
	// TotalProcessors across groups.
	TotalProcessors int
	// Speedup is the aggregate Σ N_g·(τ_g+T_supply)/R_g.
	Speedup float64
	// ProcessingPower is Σ N_g·τ_g/R_g.
	ProcessingPower float64
	// UBus and WBus are the shared-bus measures.
	UBus float64
	WBus float64
	// UMem and WMem are the shared-memory measures.
	UMem float64
	WMem float64
	// Iterations of the joint fixed point.
	Iterations int
}

// GroupResult is one group's slice of the solution.
type GroupResult struct {
	Name    string
	Count   int
	R       float64
	Speedup float64 // per-group N_g·(τ_g+T_supply)/R_g
}

// SolveHeterogeneous computes the joint steady state of several processor
// groups sharing one bus and memory. All groups must use the same timing
// constants (one bus, one memory system).
func SolveHeterogeneous(groups []Group, opts Options) (HeteroResult, error) {
	return SolveHeterogeneousContext(context.Background(), groups, opts)
}

// SolveHeterogeneousContext is SolveHeterogeneous with cancellation: the
// joint fixed point checks ctx every few iterations and returns ctx.Err()
// (wrapped) when it fires.
//
// The fixed-point state is (w_bus, w_mem, Q̄_bus): the waits are shared by
// every group, and each group's R follows from them directly (equations
// 1–4 and 13), so the state does not grow with the number of groups.
func SolveHeterogeneousContext(ctx context.Context, groups []Group, opts Options) (HeteroResult, error) {
	if len(groups) == 0 {
		return HeteroResult{}, fmt.Errorf("mva: no groups: %w", workload.ErrInvalid)
	}
	type gState struct {
		g   Group
		d   workload.Derived
		iv  workload.Interference
		r   float64
		tau float64
		nf  float64
	}
	gs := make([]gState, len(groups))
	total := 0
	var timing workload.Timing
	for i, g := range groups {
		if g.Count < 1 {
			return HeteroResult{}, fmt.Errorf("mva: group %d count %d < 1: %w", i, g.Count, workload.ErrInvalid)
		}
		d, err := g.Model.Derive()
		if err != nil {
			return HeteroResult{}, fmt.Errorf("mva: group %d: %w", i, err)
		}
		if i == 0 {
			timing = d.Timing
		} else if d.Timing != timing {
			return HeteroResult{}, fmt.Errorf("mva: groups must share timing constants: %w", workload.ErrInvalid)
		}
		total += g.Count
		gs[i] = gState{g: g, d: d, tau: d.Params.Tau, nf: float64(g.Count)}
	}
	t := timing
	for i := range gs {
		// Snooping interference sees the whole machine.
		gs[i].iv = gs[i].d.Interference(total)
	}

	totalF := float64(total)
	var uBus, uMem float64
	fp := newFixedPoint(total, state{}, opts)
	for fp.Next(ctx) {
		wBus, wMem, q := fp.X[0], fp.X[1], fp.X[2]
		// Per-group response time with the current shared state, and the
		// shared-bus aggregates it implies.
		var busOpRate, qBus float64
		uBus, uMem = 0, 0
		for i := range gs {
			d, iv := &gs[i].d, &gs[i].iv
			tBc := d.TBc(wMem)
			rBusRes := d.PBc*(wBus+tBc) + d.PRr*(wBus+d.TRead)
			var rLocal float64
			if q > 0 && iv.P > 0 {
				var nInt float64
				if iv.PPrime >= 1 {
					nInt = iv.P * q
				} else {
					nInt = iv.P * (1 - math.Pow(iv.PPrime, q)) / (1 - iv.PPrime)
				}
				rLocal = d.PLocal * nInt * iv.TInterference
			}
			r := gs[i].tau + t.TSupply + rLocal + rBusRes
			gs[i].r = r
			busOpRate += gs[i].nf * (d.PBc + d.PRr) / r
			uBus += gs[i].nf * (d.PBc*tBc + d.PRr*d.TRead) / r
			// Queue seen by an arrival: every processor's steady-state
			// bus residence, scaled by the population-wide correction of
			// equation (6) (a per-group (N_g−1)/N_g would make w_bus
			// class-dependent).
			qBus += gs[i].nf * rBusRes / r
			uMem += gs[i].nf * (1 / float64(t.BlockSize)) * d.MemOpsPerRequest() * t.DMem / r
		}
		qBus *= (totalF - 1) / totalF
		// Mean access time over all classes (op-weighted) and residual
		// life (time-weighted, deterministic service).
		var tBus, tRes float64
		if busOpRate > 0 {
			for i := range gs {
				d := &gs[i].d
				tBc := d.TBc(wMem)
				wBcOps := gs[i].nf * d.PBc / gs[i].r
				wRrOps := gs[i].nf * d.PRr / gs[i].r
				tBus += (wBcOps*tBc + wRrOps*d.TRead) / busOpRate
				if uBus > 0 {
					tRes += (wBcOps * tBc / uBus) * (tBc / 2)
					tRes += (wRrOps * d.TRead / uBus) * (d.TRead / 2)
				}
			}
		}
		pBusyBus := busyProbability(uBus, totalF)
		newWBus := math.Max(qBus-pBusyBus, 0)*tBus + pBusyBus*tRes
		newWMem := busyProbability(uMem, totalF) * t.DMem / 2
		fp.Step(state{newWBus, newWMem, qBus})
	}

	res := HeteroResult{TotalProcessors: total, Iterations: fp.Iter}
	switch {
	case errors.Is(fp.Err, ErrNoConvergence):
		return res, fmt.Errorf("%w (heterogeneous, %d groups)", ErrNoConvergence, len(groups))
	case fp.Err != nil:
		return res, fp.Err
	}
	res.WBus, res.WMem = fp.X[0], fp.X[1]
	res.UBus, res.UMem = math.Min(uBus, 1), math.Min(uMem, 1)
	for i := range gs {
		gr := GroupResult{
			Name:    gs[i].g.Name,
			Count:   gs[i].g.Count,
			R:       gs[i].r,
			Speedup: gs[i].nf * (gs[i].tau + t.TSupply) / gs[i].r,
		}
		res.PerGroup = append(res.PerGroup, gr)
		res.Speedup += gr.Speedup
		res.ProcessingPower += gs[i].nf * gs[i].tau / gs[i].r
	}
	return res, nil
}
