package snoopmva

import (
	"context"
	"io"

	"snoopmva/internal/mva"
)

// Result is the one answer record of the three models: every entry
// point, transport and campaign journal carries it, and its JSON form is
// the snoopd API's result body. A model leaves a term zero when it does
// not model that term: the GTPN net has no memory (MemUtilization,
// MemWait), the simulator does not count memory wait (MemWait), and only
// the MVA iterates (Iterations). The provenance and model-extra keys are
// omitted when empty, so an MVA answer adds only "method" to the nine
// measures.
type Result struct {
	// Method names the model that produced the numbers.
	Method Method `json:"method,omitempty"`
	// Degraded is true when SolveBest attempted a higher-fidelity stage
	// and it failed, so the numbers come from a cheaper model than
	// requested.
	Degraded bool `json:"degraded,omitempty"`
	// FallbackReason records why each abandoned stage failed (empty when
	// Degraded is false).
	FallbackReason string `json:"fallback_reason,omitempty"`

	// N is the number of processors solved for.
	N int `json:"n"`
	// Speedup is N·(τ+T_supply)/R, the paper's Section 4 metric.
	Speedup float64 `json:"speedup"`
	// ProcessingPower is the sum of processor utilizations, N·τ/R.
	ProcessingPower float64 `json:"processing_power"`
	// R is the mean total time between memory requests (equation 1).
	R float64 `json:"r"`
	// BusUtilization and BusWait are the equation (7)/(5) bus measures.
	BusUtilization float64 `json:"bus_utilization"`
	BusWait        float64 `json:"bus_wait"`
	// MemUtilization and MemWait are the equation (12)/(11) memory
	// measures.
	MemUtilization float64 `json:"mem_utilization"`
	MemWait        float64 `json:"mem_wait"`
	// Iterations is the fixed-point iteration count (Section 3.2).
	Iterations int `json:"iterations"`

	// States is the GTPN reachability-graph size, the quantity that
	// limits that model to small systems.
	States int `json:"states,omitempty"`
	// SpeedupLow and SpeedupHigh bound the simulator's 95% confidence
	// interval on Speedup.
	SpeedupLow  float64 `json:"speedup_low,omitempty"`
	SpeedupHigh float64 `json:"speedup_high,omitempty"`
	// Observed is the workload the simulator measured, per class: the
	// stream mix and read ratios it drew and the hit rates, amod,
	// csupply, wb_csupply and rep that emerged (parameters to the models,
	// measured outcomes here). FixedParams is set, since measured values
	// are meant verbatim, so Solve(p, *Observed, n) solves the model on
	// them.
	Observed *Workload `json:"observed,omitempty"`
}

// Options tunes the MVA solution; the zero value iterates the paper's
// equations from zero waits (Section 3.2) to a tight tolerance, with the
// substitution Anderson-accelerated. Zero fields are omitted from JSON.
type Options struct {
	// Tolerance for the fixed point; 0 means 1e-10.
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxIterations bounds the iteration count; 0 means 10000.
	MaxIterations int `json:"max_iterations,omitempty"`

	// Ablation switches (see the §4.3 stress experiment in
	// internal/exp/stress.go): disable individual submodels to quantify
	// their contribution.
	NoCacheInterference  bool `json:"no_cache_interference,omitempty"`
	NoMemoryInterference bool `json:"no_memory_interference,omitempty"`
	NoResidualLife       bool `json:"no_residual_life,omitempty"`
	ExponentialBus       bool `json:"exponential_bus,omitempty"`
	NoArrivalCorrection  bool `json:"no_arrival_correction,omitempty"`
	// SplitTransactionBus models a split-transaction bus: memory-supplied
	// reads release the bus during the memory latency.
	SplitTransactionBus bool `json:"split_transaction_bus,omitempty"`
}

func (o Options) internal() mva.Options {
	return mva.Options{
		Tol:                  o.Tolerance,
		MaxIter:              o.MaxIterations,
		NoCacheInterference:  o.NoCacheInterference,
		NoMemoryInterference: o.NoMemoryInterference,
		NoResidualLife:       o.NoResidualLife,
		ExponentialBus:       o.ExponentialBus,
		NoArrivalCorrection:  o.NoArrivalCorrection,
		SplitTransactionBus:  o.SplitTransactionBus,
	}
}

func model(p Protocol, w Workload, t Timing) (mva.Model, error) {
	if err := p.validate(); err != nil {
		return mva.Model{}, err
	}
	return mva.Model{
		Workload:         w.internal(),
		Timing:           t.internal(),
		Mods:             p.inner.Mods,
		RawParams:        w.FixedParams,
		WriteThroughBase: p.inner.WriteThroughBase,
	}, nil
}

// Solve runs the paper's MVA model for protocol p, workload w, and n
// processors with default timing and options.
func Solve(p Protocol, w Workload, n int) (Result, error) {
	return SolveWithContext(context.Background(), p, w, Timing{}, n, Options{})
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

// SimOptions tunes the detailed simulator.
type SimOptions struct {
	// Seed fixes the random streams (0 means 1).
	Seed uint64
	// WarmupCycles is the unmeasured warm-up and MeasureCycles the cap on
	// the measurement window, which ends early once the speedup is known
	// to ±1 % (see SimulateContext); zero values use the simulator
	// defaults (30k / 300k), negative warmup means none.
	WarmupCycles  int64
	MeasureCycles int64
}
