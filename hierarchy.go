package snoopmva

import (
	"fmt"

	"snoopmva/internal/hierarchy"
)

// HierarchicalConfig describes a two-level (clustered) bus architecture —
// the extension direction the paper's conclusion points to ([Wils87],
// [GoWo87]): C clusters of K processors, each cluster on its own local bus
// with a cluster memory, joined by a global bus to main memory.
type HierarchicalConfig struct {
	// Clusters (C) and PerCluster (K); total processors = C×K.
	Clusters   int
	PerCluster int
	// GlobalMissFraction is the probability a remote read escalates past
	// the cluster to the global bus.
	GlobalMissFraction float64
	// GlobalBcFraction is the probability a broadcast must also cross
	// the global bus (the block is shared across clusters).
	GlobalBcFraction float64
	// GlobalSpeedRatio scales global-bus transfer times relative to the
	// local bus (1 = same speed; 0 means 1).
	GlobalSpeedRatio float64
}

// HierarchicalResult holds the two-level model's outputs.
type HierarchicalResult struct {
	Clusters        int
	PerCluster      int
	TotalProcessors int
	Speedup         float64
	R               float64
	LocalBusUtil    float64
	LocalBusWait    float64
	GlobalBusUtil   float64
	GlobalBusWait   float64
	Iterations      int
}

// SolveHierarchical runs the hierarchical MVA model. With Clusters = 1 and
// zero escalation fractions it reduces exactly to Solve.
func SolveHierarchical(p Protocol, w Workload, cfg HierarchicalConfig) (res HierarchicalResult, err error) {
	defer guard(&err)
	if err := p.validate(); err != nil {
		return HierarchicalResult{}, err
	}
	r, err := hierarchy.Solve(hierarchy.Config{
		Clusters:           cfg.Clusters,
		PerCluster:         cfg.PerCluster,
		Workload:           w.internal(),
		Mods:               p.inner.Mods,
		RawParams:          w.FixedParams,
		GlobalMissFraction: cfg.GlobalMissFraction,
		GlobalBcFraction:   cfg.GlobalBcFraction,
		GlobalSpeedRatio:   cfg.GlobalSpeedRatio,
	}, hierarchy.Options{})
	if err != nil {
		return HierarchicalResult{}, err
	}
	return HierarchicalResult{
		Clusters:        r.Clusters,
		PerCluster:      r.PerCluster,
		TotalProcessors: r.TotalProcessors,
		Speedup:         r.Speedup,
		R:               r.R,
		LocalBusUtil:    r.ULocalBus,
		LocalBusWait:    r.WLocalBus,
		GlobalBusUtil:   r.UGlobalBus,
		GlobalBusWait:   r.WGlobalBus,
		Iterations:      r.Iterations,
	}, nil
}

// ClusterShapes solves every (clusters × per-cluster) factorization of
// total processors for the given escalation fractions, returning results
// from flattest (1×N) to deepest (N×1).
func ClusterShapes(p Protocol, w Workload, total int, cfg HierarchicalConfig) (out []HierarchicalResult, err error) {
	defer guard(&err)
	if total < 1 {
		return nil, fmt.Errorf("snoopmva: total processors %d < 1: %w", total, ErrInvalidInput)
	}
	for c := 1; c <= total; c++ {
		if total%c != 0 {
			continue
		}
		cfg := cfg
		cfg.Clusters = c
		cfg.PerCluster = total / c
		r, err := SolveHierarchical(p, w, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
