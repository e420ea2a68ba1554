// Package mva implements the paper's primary contribution: the customized
// mean-value-analysis model of bus, memory, and cache interference for
// snooping cache-consistency protocols (Section 3), solved by fixed-point
// iteration (Section 3.2).
//
// The model's equations are implemented one-to-one:
//
//	(1)  R = τ + R_local + R_broadcast + R_RemoteRead + T_supply
//	(2)  R_local = p_local · n_interference · t_interference
//	(3)  R_broadcast = p_bc · (w_bus + w_mem + T_write)
//	(4)  R_RemoteRead = p_rr · (w_bus + t_read)
//	(5)  w_bus = (Q̄_bus − p_busy,bus)·t_bus + p_busy,bus·t_res,bus
//	(6)  Q̄_bus = (N−1)·(R_bc + R_rr)/R
//	(7)  U_bus = N·(p_bc·(w_mem+T_write) + p_rr·t_read)/R
//	(8)  p_busy,bus = (U_bus − U_bus/N)/(1 − U_bus/N)
//	(9)  t_bus = weighted mean bus access time
//	(10) t_res,bus = time-weighted mean residual life (deterministic service)
//	(11) w_mem = p_busy,mem · d_mem/2
//	(12) U_mem = N·(1/m)·[p_bc + p_rr(p_csupwb|rr + p_reqwb|rr)]·d_mem/R
//	(13) n_interference = p·(1 − p'^Q̄)/(1 − p')
//
// plus the Appendix B cache-interference quantities computed in
// internal/workload. Protocol modifications enter through the derived
// inputs (Section 3.3), not through structural changes to the equations.
package mva

import (
	"fmt"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// Options tunes the fixed-point solution of the MVA model — Tol, MaxIter
// and Damping drive its fixedPoint — and enables the ablation switches
// used by the §4.3 stress experiment (internal/exp/stress.go) to isolate
// the submodels the detailed model shares.
type Options struct {
	// Tol is the convergence tolerance on the largest change one (damped)
	// update of the equations makes to the fixed-point state — (R, w_bus,
	// w_mem) for the flat model — relative to 1 plus the magnitude of its
	// first coordinate. Zero means 1e-10.
	Tol float64
	// MaxIter bounds the iteration count of each rung. Zero means 10000.
	// (The paper reports convergence within 15 iterations for all its
	// experiments; see Result.Iterations.)
	MaxIter int
	// Damping in (0,1] under-relaxes the waiting-time updates of an
	// unaccelerated iteration; 1 is the paper's plain substitution. Zero
	// selects the default ladder: plain substitution with depth-2
	// Anderson acceleration, then damping 0.5 and 0.2 on
	// non-convergence. Near saturation the plain iterates converge as a
	// slowly damped oscillation (a complex eigenvalue pair of the
	// fixed-point map); the Anderson extrapolation cancels that pair,
	// and under-relaxation is the fallback where it cannot.
	Damping float64

	// NoCacheInterference drops the R_local term of equation (2) —
	// ablation: how much does modeling snoop-induced cache blocking
	// matter?
	NoCacheInterference bool
	// NoMemoryInterference forces w_mem = 0 — ablation of equations
	// (11)–(12).
	NoMemoryInterference bool
	// NoResidualLife replaces the mean residual life t_res,bus of
	// equation (10) with the full mean access time t_bus — ablation of
	// the deterministic-service residual term.
	NoResidualLife bool
	// ExponentialBus models bus access times as exponential, making the
	// residual life equal to the full access time per class (the
	// [GrMi87] assumption the paper improves upon).
	ExponentialBus bool
	// NoArrivalCorrection uses N instead of N−1 in equation (6) and skips
	// the (U − U/N)/(1 − U/N) correction of equation (8) — ablation of
	// the arrival-theorem "customer removed" approximation.
	NoArrivalCorrection bool
	// SplitTransactionBus models a split-transaction bus: memory-supplied
	// reads release the bus during the memory latency (the bus occupancy
	// of a memory read drops by d_mem) while the requester still
	// experiences the full latency. The request and response arbitrations
	// are approximated by a single combined wait. This is the
	// architectural what-if the late-80s designs moved toward.
	SplitTransactionBus bool
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10000
	}
	return o
}

// Result holds all model outputs for one configuration.
type Result struct {
	N    int
	Mods protocol.ModSet

	// R is the mean total time between memory requests (equation 1).
	R float64
	// Speedup = N·(τ + T_supply)/R (Section 4).
	Speedup float64
	// ProcessingPower = N·τ/R, the sum of processor utilizations
	// (Section 4.4).
	ProcessingPower float64

	// Response-time components (equations 2–4).
	RLocal      float64
	RBroadcast  float64
	RRemoteRead float64

	// Bus quantities (equations 5–10).
	WBus    float64
	QBus    float64
	UBus    float64
	TBus    float64
	TResBus float64

	// Memory quantities (equations 11–12).
	WMem float64
	UMem float64

	// NInterference is equation (13)'s expected number of interfering
	// requests. The inputs behind it are Model.Derive and
	// Derived.Interference(N).
	NInterference float64

	// Iterations is the number of fixed-point iterations used.
	Iterations int
	// Residual is the final joint fixed-point delta over (R, w_bus,
	// w_mem) at convergence — the quantity compared against the
	// tolerance. Zero on a failed solve.
	Residual float64
}

// String renders the headline metrics.
func (r Result) String() string {
	return fmt.Sprintf("%v N=%d: speedup=%.3f R=%.3f U_bus=%.3f w_bus=%.3f U_mem=%.3f",
		r.Mods, r.N, r.Speedup, r.R, r.UBus, r.WBus, r.UMem)
}

// Model bundles one solvable configuration.
type Model struct {
	// Workload holds the basic parameters. The Appendix A per-protocol
	// adjustments are applied automatically unless RawParams is set.
	Workload workload.Params
	// Timing holds the architectural constants; zero value means
	// workload.DefaultTiming().
	Timing workload.Timing
	// Mods selects the protocol (modification set over Write-Once).
	Mods protocol.ModSet
	// RawParams suppresses the automatic ForProtocol adjustment, for
	// callers that have already adjusted (or deliberately fixed) the
	// parameters.
	RawParams bool
	// WriteThroughBase models the degenerate all-write-through protocol
	// instead of Write-Once + Mods.
	WriteThroughBase bool
}

func (m Model) timing() workload.Timing {
	if m.Timing == (workload.Timing{}) {
		return workload.DefaultTiming()
	}
	return m.Timing
}

func (m Model) params() workload.Params {
	if m.RawParams {
		return m.Workload
	}
	return m.Workload.ForProtocol(m.Mods)
}

// Derive computes the model inputs for this configuration.
func (m Model) Derive() (workload.Derived, error) {
	if m.WriteThroughBase {
		// Per-protocol replacement adjustments are meaningless here:
		// write-through never dirties blocks.
		return workload.DeriveWriteThrough(m.Workload, m.timing())
	}
	return workload.Derive(m.params(), m.timing(), m.Mods)
}
