package main

import (
	"fmt"
	"time"

	"snoopmva"
)

// probeLimit bounds how many of a run's points the probes use.
const probeLimit = 512

// cacheProbe is the cost of the solve cache on a workload's keys,
// measured in-process through CachedSolver: a miss solves and inserts, a
// hit is a lookup of a resident entry.
type cacheProbe struct {
	missNs, hitNs []float64
}

// probeCache solves each config twice through a fresh CachedSolver —
// first a miss, then a hit.
func probeCache(cfgs []config) (cacheProbe, error) {
	if len(cfgs) > probeLimit {
		cfgs = cfgs[:probeLimit]
	}
	c := snoopmva.NewCachedSolver(2 * len(cfgs))
	var p cacheProbe
	for _, k := range cfgs {
		t0 := time.Now()
		if _, err := c.Solve(k.Protocol, k.Workload, k.N); err != nil {
			return p, fmt.Errorf("cache probe miss: %w", err)
		}
		t1 := time.Now()
		if _, err := c.Solve(k.Protocol, k.Workload, k.N); err != nil {
			return p, fmt.Errorf("cache probe hit: %w", err)
		}
		p.missNs = append(p.missNs, float64(t1.Sub(t0)))
		p.hitNs = append(p.hitNs, float64(time.Since(t1)))
	}
	return p, nil
}

// solveProbe is the direct cost of a workload's points in the mva layer.
type solveProbe struct {
	mvaNs      []float64
	iterations []float64
}

// probeSolve times Solve on each config.
func probeSolve(cfgs []config) (solveProbe, error) {
	if len(cfgs) > probeLimit {
		cfgs = cfgs[:probeLimit]
	}
	var p solveProbe
	for _, k := range cfgs {
		t0 := time.Now()
		r, err := snoopmva.Solve(k.Protocol, k.Workload, k.N)
		if err != nil {
			return p, fmt.Errorf("probe Solve: %w", err)
		}
		p.mvaNs = append(p.mvaNs, float64(time.Since(t0)))
		p.iterations = append(p.iterations, float64(r.Iterations))
	}
	return p, nil
}

func nsToUs(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e3
	}
	return out
}

func configOf(pt snoopmva.CampaignPoint) config {
	return config{Protocol: pt.Protocol, Workload: pt.Workload, N: pt.N}
}
