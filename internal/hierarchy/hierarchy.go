// Package hierarchy extends the paper's customized MVA to a two-level
// (hierarchical) bus architecture — the "larger and more complex
// cache-coherent multiprocessors [Wils87, GoWo87]" direction its
// conclusion points to.
//
// The machine: C clusters, each with K processors sharing a local bus and
// a cluster memory; a global bus connects the clusters to main memory.
// Memory requests resolve in the local cache, on the local bus (cluster
// hit), or escalate over the global bus (split transaction: the local bus
// is released while the global bus is queued for, then re-acquired to
// deliver the response — the buffered design of the hierarchical
// proposals).
//
// The model composes the same ingredients as the flat model (equations
// (5)–(13): arrival-theorem queue estimates, deterministic residual life,
// finite-population busy-probability corrections) once per bus level, and
// degenerates exactly to the flat model when C = 1 and no traffic
// escalates — a property the test suite pins down.
package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"math"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// Config describes one hierarchical configuration.
type Config struct {
	// Clusters is the number of clusters (C ≥ 1).
	Clusters int
	// PerCluster is the number of processors per cluster (K ≥ 1).
	PerCluster int
	// Workload and Mods follow the flat model; Appendix A per-protocol
	// adjustments apply unless RawParams.
	Workload  workload.Params
	Timing    workload.Timing
	Mods      protocol.ModSet
	RawParams bool

	// GlobalMissFraction is the probability that a remote read cannot be
	// satisfied within the cluster (by the cluster memory or a sibling
	// cache) and must cross the global bus.
	GlobalMissFraction float64
	// GlobalBcFraction is the probability that a broadcast (write-word /
	// invalidate / update) must also appear on the global bus because the
	// block is shared across clusters.
	GlobalBcFraction float64
	// GlobalSpeedRatio scales global-bus transfer times relative to the
	// local bus (≥ 1 means the global bus is no faster). Zero means 1;
	// negative and non-finite ratios are invalid.
	GlobalSpeedRatio float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("hierarchy: clusters = %d < 1: %w", c.Clusters, workload.ErrInvalid)
	}
	if c.PerCluster < 1 {
		return fmt.Errorf("hierarchy: per-cluster = %d < 1: %w", c.PerCluster, workload.ErrInvalid)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"global miss fraction", c.GlobalMissFraction},
		{"global broadcast fraction", c.GlobalBcFraction},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("hierarchy: %s = %v outside [0,1]: %w", p.name, p.v, workload.ErrInvalid)
		}
	}
	if r := c.GlobalSpeedRatio; r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("hierarchy: global speed ratio %v is negative or not finite: %w", r, workload.ErrInvalid)
	}
	return nil
}

func (c Config) timing() workload.Timing {
	if c.Timing == (workload.Timing{}) {
		return workload.DefaultTiming()
	}
	return c.Timing
}

func (c Config) derive() (workload.Derived, error) {
	p := c.Workload
	if !c.RawParams {
		p = p.ForProtocol(c.Mods)
	}
	return workload.Derive(p, c.timing(), c.Mods)
}

// Options are the flat solver's iteration controls (Tol, MaxIter and
// Damping; the flat model's ablation switches do not apply).
type Options = mva.Options

// Result holds the hierarchical model's outputs.
type Result struct {
	Clusters   int
	PerCluster int
	// TotalProcessors = Clusters × PerCluster.
	TotalProcessors int
	// R is the mean time between memory requests per processor.
	R float64
	// Speedup = N_total·(τ+T_supply)/R.
	Speedup float64
	// Local-bus quantities (per cluster).
	ULocalBus float64
	WLocalBus float64
	// Global-bus quantities.
	UGlobalBus float64
	WGlobalBus float64
	// Memory waits at the two levels.
	WClusterMem float64
	WGlobalMem  float64
	Iterations  int
}

// String renders the headline metrics.
func (r Result) String() string {
	return fmt.Sprintf("%dx%d: speedup=%.3f R=%.3f U_lbus=%.3f U_gbus=%.3f",
		r.Clusters, r.PerCluster, r.Speedup, r.R, r.ULocalBus, r.UGlobalBus)
}

// Solve computes the steady state; see SolveContext.
func Solve(cfg Config, opts Options) (Result, error) {
	return SolveContext(context.Background(), cfg, opts)
}

// SolveContext computes the steady state by fixed-point iteration over
// (R, w_lbus, w_gbus), checking ctx every few iterations. Both memory
// waits depend on R alone (equations 11–12), so each evaluation derives
// them first.
func SolveContext(ctx context.Context, cfg Config, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	d, err := cfg.derive()
	if err != nil {
		return Result{}, err
	}
	t := d.Timing
	tau := d.Params.Tau
	k := float64(cfg.PerCluster)
	cTot := float64(cfg.Clusters * cfg.PerCluster)
	gRatio := cfg.GlobalSpeedRatio
	if gRatio == 0 {
		gRatio = 1
	}

	// Traffic split. Local remote-reads stay within the cluster; global
	// ones cross both buses (split transaction).
	gm, gb := cfg.GlobalMissFraction, cfg.GlobalBcFraction
	pRrLocal := d.PRr * (1 - gm)
	pRrGlobal := d.PRr * gm
	pBcLocal := d.PBc * (1 - gb)
	pBcGlobal := d.PBc * gb

	// Global-bus access times: the block transfer and memory latency are
	// scaled by the global speed ratio; the cluster-level supply mix of
	// t_read does not apply (global misses by definition go to main
	// memory), so the global read time is the memory path plus the
	// requester write-back if any.
	tReadGlobal := (1 + t.DMem + t.TBlock) * gRatio
	// Local-bus legs of a global read: the address/request cycle and the
	// response delivery (one block transfer). The requester's replacement
	// write-back stays on the local bus and the cluster memory path.
	lbusGlobalRead := 1.0 + t.TBlock + t.TBlock*d.PReqWbRR

	// Memory operations per request at the two levels (equation 12).
	memOpsLocal := pRrLocal*(d.PCsupWbRR+d.PReqWbRR) + pRrGlobal*d.PReqWbRR
	memOpsGlobal := pRrGlobal
	if d.BroadcastTouchesMemory {
		memOpsLocal += pBcLocal
		memOpsGlobal += pBcGlobal
	}

	iv := d.Interference(cfg.PerCluster) // snooping is a cluster-local affair

	res := Result{
		Clusters:        cfg.Clusters,
		PerCluster:      cfg.PerCluster,
		TotalProcessors: cfg.Clusters * cfg.PerCluster,
	}
	var uL, uG float64
	r0 := tau + t.TSupply + pBcLocal*d.TBc(0) + pRrLocal*d.TRead +
		pBcGlobal*(d.TBc(0)+t.TWrite*gRatio) + pRrGlobal*(lbusGlobalRead+tReadGlobal)
	fp := mva.NewFixedPoint(res.TotalProcessors, mva.State{r0, 0, 0}, opts)
	for fp.Next(ctx) {
		r, wLBus, wGBus := fp.X[0], fp.X[1], fp.X[2]

		// --- memory interference at both levels (equations 11–12) ---
		uCMem := k * (1 / float64(t.BlockSize)) * memOpsLocal * t.DMem / r
		res.WClusterMem = mva.BusyProbability(uCMem, k) * t.DMem / 2
		uGMem := cTot * (1 / float64(t.BlockSize)) * memOpsGlobal * (t.DMem * gRatio) / r
		res.WGlobalMem = mva.BusyProbability(uGMem, cTot) * t.DMem * gRatio / 2

		tBcL := d.TBc(res.WClusterMem)
		tBcG := t.TWrite*gRatio + res.WGlobalMem

		// Local-bus occupancy per request (what each transaction holds
		// the local bus for) and global-bus occupancy per request.
		lbusDemand := (pBcLocal+pBcGlobal)*tBcL + pRrLocal*d.TRead + pRrGlobal*lbusGlobalRead
		gbusDemand := pBcGlobal*tBcG + pRrGlobal*tReadGlobal

		// Response-time components.
		rBcLocal := pBcLocal * (wLBus + tBcL)
		rRrLocal := pRrLocal * (wLBus + d.TRead)
		rBcGlobal := pBcGlobal * (wLBus + tBcL + wGBus + tBcG)
		rRrGlobal := pRrGlobal * (2*wLBus + wGBus + lbusGlobalRead + tReadGlobal)

		// --- local bus (K customers per cluster) ---
		qL := math.Max((k-1)*(rBcLocal+rRrLocal+rBcGlobal+rRrGlobal)/r, 0)
		uL = k * lbusDemand / r
		pBusyL := mva.BusyProbability(uL, k)
		// Mean and residual of local-bus holding times, residual weighted
		// by time (deterministic service → residual = half).
		tL, tResL := holding(lbusDemand,
			class{pBcLocal + pBcGlobal, tBcL}, class{pRrLocal, d.TRead}, class{pRrGlobal, lbusGlobalRead})
		newWLBus := math.Max(qL-pBusyL, 0)*tL + pBusyL*tResL

		// --- global bus (C·K processors via C cluster ports) ---
		qG := math.Max((cTot-1)*(rBcGlobal+rRrGlobal)/r, 0)
		uG = cTot * gbusDemand / r
		pBusyG := mva.BusyProbability(uG, cTot)
		tG, tResG := holding(gbusDemand, class{pBcGlobal, tBcG}, class{pRrGlobal, tReadGlobal})
		newWGBus := math.Max(qG-pBusyG, 0)*tG + pBusyG*tResG

		// --- cache interference (equation 13, cluster-local) ---
		var rLocal float64
		if qL > 0 && iv.P > 0 {
			var nInt float64
			if iv.PPrime >= 1 {
				nInt = iv.P * qL
			} else {
				nInt = iv.P * (1 - math.Pow(iv.PPrime, qL)) / (1 - iv.PPrime)
			}
			rLocal = d.PLocal * nInt * iv.TInterference
		}

		newR := tau + t.TSupply + rLocal + rBcLocal + rRrLocal + rBcGlobal + rRrGlobal
		fp.Step(mva.State{newR, newWLBus, newWGBus})
	}
	res.Iterations = fp.Iter
	switch {
	case errors.Is(fp.Err, mva.ErrNoConvergence):
		return res, fmt.Errorf("hierarchy: %w after %d iterations", mva.ErrNoConvergence, fp.Iter)
	case fp.Err != nil:
		return res, fp.Err
	}
	res.R, res.WLocalBus, res.WGlobalBus = fp.X[0], fp.X[1], fp.X[2]
	res.Speedup = cTot * (tau + t.TSupply) / res.R
	res.ULocalBus = math.Min(uL, 1)
	res.UGlobalBus = math.Min(uG, 1)
	return res, nil
}

// class is one transaction class on a bus: its per-request probability
// and its bus holding time.
type class struct{ p, dur float64 }

// holding returns a bus's mean holding time per transaction (weighted by
// operations) and its mean residual life (weighted by time, deterministic
// service → half the duration), given the classes and their total time
// per request, demand.
func holding(demand float64, classes ...class) (mean, residual float64) {
	if demand <= 0 {
		return 0, 0
	}
	var ops float64
	for _, c := range classes {
		if c.p <= 0 || c.dur <= 0 {
			continue
		}
		ops += c.p
		mean += c.p * c.dur
		residual += (c.p * c.dur / demand) * (c.dur / 2)
	}
	return mean / ops, residual
}
