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
	"fmt"
	"math"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/queueing"
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
	// local bus (≥ 1 means the global bus is no faster). Zero means 1.
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
	if c.GlobalSpeedRatio < 0 {
		return fmt.Errorf("hierarchy: negative global speed ratio %v: %w", c.GlobalSpeedRatio, workload.ErrInvalid)
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

// Options mirrors the flat solver's iteration controls.
type Options struct {
	// Tol is the convergence tolerance; zero means 1e-10.
	Tol float64
	// MaxIter bounds iterations; zero means 20000.
	MaxIter int
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 20000
	}
	return o
}

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

// Solve computes the steady state by fixed-point iteration over the two
// bus waiting times, the two memory waits, and R.
func Solve(cfg Config, opts Options) (Result, error) {
	o := opts.withDefaults()
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
	// response delivery (one block transfer).
	lbusReqLeg := 1.0
	lbusRespLeg := t.TBlock
	// The requester's replacement write-back stays on the local bus and
	// the cluster memory path.
	lbusWbLeg := t.TBlock * d.PReqWbRR

	iv := d.Interference(cfg.PerCluster) // snooping is a cluster-local affair

	var wLBus, wGBus, wCMem, wGMem float64
	r := tau + t.TSupply + pBcLocal*d.TBc(0) + pRrLocal*d.TRead +
		pBcGlobal*(d.TBc(0)+t.TWrite*gRatio) +
		pRrGlobal*(lbusReqLeg+lbusRespLeg+lbusWbLeg+tReadGlobal)

	res := Result{
		Clusters:        cfg.Clusters,
		PerCluster:      cfg.PerCluster,
		TotalProcessors: cfg.Clusters * cfg.PerCluster,
	}
	for iter := 1; iter <= o.MaxIter; iter++ {
		tBcL := d.TBc(wCMem)

		// Local-bus occupancy per request (what each transaction holds
		// the local bus for).
		lbusTimeLocal := pBcLocal*tBcL + pRrLocal*d.TRead
		lbusTimeGlobal := pBcGlobal*tBcL + pRrGlobal*(lbusReqLeg+lbusRespLeg+lbusWbLeg)
		lbusDemand := lbusTimeLocal + lbusTimeGlobal

		// Global-bus occupancy per request.
		gbusDemand := pBcGlobal*(t.TWrite*gRatio+wGMem) + pRrGlobal*tReadGlobal

		// Response-time components.
		rBcLocal := pBcLocal * (wLBus + tBcL)
		rRrLocal := pRrLocal * (wLBus + d.TRead)
		rBcGlobal := pBcGlobal * (wLBus + tBcL + wGBus + t.TWrite*gRatio + wGMem)
		rRrGlobal := pRrGlobal * (wLBus + lbusReqLeg + wGBus + tReadGlobal + wLBus + lbusRespLeg + lbusWbLeg)

		// --- local bus (K customers per cluster) ---
		qL := (k - 1) * (rBcLocal + rRrLocal + rBcGlobal + rRrGlobal) / r
		if qL < 0 {
			qL = 0
		}
		uL := k * lbusDemand / r
		pBusyL, err := queueing.BusyProbabilityFinite(uL, cfg.PerCluster)
		if err != nil {
			return Result{}, err
		}
		var tL, tResL float64
		if lbusDemand > 0 {
			// Mean and residual of local-bus holding times, weighted by
			// time (deterministic service → residual = half).
			wSum := lbusDemand
			tL = (pBcLocal+pBcGlobal)*tBcL + pRrLocal*d.TRead + pRrGlobal*(lbusReqLeg+lbusRespLeg+lbusWbLeg)
			den := pBcLocal + pBcGlobal + pRrLocal + pRrGlobal
			if den > 0 {
				tL /= den
			}
			tResL = 0
			for _, c := range []struct{ p, dur float64 }{
				{pBcLocal + pBcGlobal, tBcL},
				{pRrLocal, d.TRead},
				{pRrGlobal, lbusReqLeg + lbusRespLeg + lbusWbLeg},
			} {
				if c.p <= 0 || c.dur <= 0 {
					continue
				}
				tResL += (c.p * c.dur / wSum) * (c.dur / 2)
			}
		}
		waitingL := qL - pBusyL
		if waitingL < 0 {
			waitingL = 0
		}
		newWLBus := waitingL*tL + pBusyL*tResL

		// --- global bus (C·K processors via C cluster ports) ---
		qG := (cTot - 1) * (rBcGlobal + rRrGlobal) / r
		if qG < 0 {
			qG = 0
		}
		uG := cTot * gbusDemand / r
		pBusyG, err := queueing.BusyProbabilityFinite(uG, cfg.Clusters*cfg.PerCluster)
		if err != nil {
			return Result{}, err
		}
		var tG, tResG float64
		if gbusDemand > 0 {
			den := pBcGlobal + pRrGlobal
			tG = (pBcGlobal*(t.TWrite*gRatio+wGMem) + pRrGlobal*tReadGlobal) / den
			wSum := gbusDemand
			for _, c := range []struct{ p, dur float64 }{
				{pBcGlobal, t.TWrite*gRatio + wGMem},
				{pRrGlobal, tReadGlobal},
			} {
				if c.p <= 0 || c.dur <= 0 {
					continue
				}
				tResG += (c.p * c.dur / wSum) * (c.dur / 2)
			}
		}
		waitingG := qG - pBusyG
		if waitingG < 0 {
			waitingG = 0
		}
		newWGBus := waitingG*tG + pBusyG*tResG

		// --- memory interference at both levels (equations 11–12) ---
		var newWCMem, newWGMem float64
		memOpsLocal := pRrLocal*(d.PCsupWbRR+d.PReqWbRR) + pRrGlobal*d.PReqWbRR
		if d.BroadcastTouchesMemory {
			memOpsLocal += pBcLocal
		}
		uCMem := k * (1 / float64(t.BlockSize)) * memOpsLocal * t.DMem / r
		pBusyCM, err := queueing.BusyProbabilityFinite(uCMem, cfg.PerCluster)
		if err != nil {
			return Result{}, err
		}
		newWCMem = pBusyCM * t.DMem / 2
		memOpsGlobal := pRrGlobal
		if d.BroadcastTouchesMemory {
			memOpsGlobal += pBcGlobal
		}
		uGMem := cTot * (1 / float64(t.BlockSize)) * memOpsGlobal * (t.DMem * gRatio) / r
		pBusyGM, err := queueing.BusyProbabilityFinite(uGMem, cfg.Clusters*cfg.PerCluster)
		if err != nil {
			return Result{}, err
		}
		newWGMem = pBusyGM * t.DMem * gRatio / 2

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

		delta := math.Max(math.Abs(newR-r),
			math.Max(math.Abs(newWLBus-wLBus), math.Abs(newWGBus-wGBus)))
		// Under-relax: the two coupled queues oscillate under plain
		// substitution near saturation.
		const damp = 0.5
		wLBus = damp*newWLBus + (1-damp)*wLBus
		wGBus = damp*newWGBus + (1-damp)*wGBus
		wCMem = damp*newWCMem + (1-damp)*wCMem
		wGMem = damp*newWGMem + (1-damp)*wGMem
		r = damp*newR + (1-damp)*r
		res.Iterations = iter
		if delta < o.Tol*(1+math.Abs(r)) {
			res.R = r
			res.Speedup = cTot * (tau + t.TSupply) / r
			res.ULocalBus = math.Min(uL, 1)
			res.UGlobalBus = math.Min(uG, 1)
			res.WLocalBus = wLBus
			res.WGlobalBus = wGBus
			res.WClusterMem = wCMem
			res.WGlobalMem = wGMem
			return res, nil
		}
	}
	return res, fmt.Errorf("hierarchy: %w after %d iterations", mva.ErrNoConvergence, o.MaxIter)
}

// Crossover sweeps cluster shapes for a fixed total processor count and
// returns the results in the order of the shapes slice. Shapes whose
// product differs from total are rejected.
func Crossover(base Config, total int, shapes [][2]int, opts Options) ([]Result, error) {
	out := make([]Result, 0, len(shapes))
	for _, s := range shapes {
		if s[0]*s[1] != total {
			return nil, fmt.Errorf("hierarchy: shape %dx%d != total %d: %w", s[0], s[1], total, workload.ErrInvalid)
		}
		cfg := base
		cfg.Clusters, cfg.PerCluster = s[0], s[1]
		r, err := Solve(cfg, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
