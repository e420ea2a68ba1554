// Package cachesim is the detailed, cycle-level multiprocessor simulator:
// N processors with snooping caches executing the *actual* per-block
// protocol state machines of internal/protocol over a shared FCFS bus with
// interleaved memory modules. It plays the role of the independent
// simulation studies ([ArBa86], [KEWP85]) the paper compares against.
//
// The reference stream is probabilistic (the paper's workload model,
// Section 2.3): stream class, read/write mix and hit/miss draws follow the
// basic parameters — but everything at block granularity is real. Blocks
// have identities (the block geometry of internal/workload); invalidations
// destroy remote copies; dirty ownership migrates; write-backs happen when
// states say so. Quantities the analytical models take as parameters
// (amod, csupply, rep, effective hit rates) are *emergent* here. The run
// counts them in a workload.Counts, the counter internal/fit fills from a
// trace, and reports them as a workload.Params (Observed.Workload), the
// models' own input type.
package cachesim

import (
	"fmt"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

const (
	// Batches is how many batches the measurement window is cut into for
	// the speedup's confidence interval: a batch is MeasureCycles/Batches
	// cycles, at least 1. A run stopped early by RelPrecision uses
	// quarter-batches instead.
	Batches = 15
	// MaxN bounds the processors of one run. The per-block arrays hold
	// (SWBlocks + SROBlocks + PrivBlocks·N)·N entries of 5 bytes (the
	// workload package's block geometry), about 42 MB at N = 128; the
	// simulator comparisons stop at N = 16.
	MaxN = 128
)

// Config describes one simulation run.
type Config struct {
	// N is the number of processors, 1..MaxN.
	N int
	// Protocol selects the coherence protocol (state machines + timing
	// behavior).
	Protocol protocol.Protocol
	// Workload holds the basic parameters; Appendix A per-protocol
	// adjustments apply unless RawParams (only the hit-rate and stream
	// parameters are used for generation — replacement and supply
	// behavior is emergent).
	Workload  workload.Params
	Timing    workload.Timing
	RawParams bool
	// Seed makes the run reproducible.
	Seed uint64
	// SplitTransactions models a split-transaction bus: memory-supplied
	// misses release the bus during the memory latency; the response
	// (block transfer) arbitrates for the bus again when the data is
	// ready, with priority over new requests.
	SplitTransactions bool

	// WarmupCycles are simulated but not measured (default 30000;
	// negative means no warmup).
	WarmupCycles int64
	// MeasureCycles is the measurement window (default 300000). With
	// RelPrecision set it is the cap on the window.
	MeasureCycles int64
	// RelPrecision, when positive, stops the run early once the 95 %
	// interval of the speedup is within ±RelPrecision of it, relative to
	// the speedup (0.01 is ±1 %); see Simulator.RunContext for the rule.
	// Zero runs the whole MeasureCycles window.
	RelPrecision float64
}

func (c Config) withDefaults() Config {
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 30000
	} else if c.WarmupCycles < 0 {
		c.WarmupCycles = 0
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 300000
	}
	if c.Timing == (workload.Timing{}) {
		c.Timing = workload.DefaultTiming()
	}
	return c
}

// Validate checks the configuration. All validation failures wrap
// workload.ErrInvalid.
func (c Config) Validate() error {
	if c.N < 1 || c.N > MaxN {
		return fmt.Errorf("cachesim: N=%d outside 1..%d: %w", c.N, MaxN, workload.ErrInvalid)
	}
	p := c.params()
	if err := p.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if !c.Protocol.WriteThroughBase {
		if err := c.Protocol.Mods.Valid(); err != nil {
			return err
		}
	}
	if c.WarmupCycles < 0 || c.MeasureCycles < 1 {
		return fmt.Errorf("cachesim: bad cycle budget warmup=%d measure=%d: %w", c.WarmupCycles, c.MeasureCycles, workload.ErrInvalid)
	}
	if !(c.RelPrecision >= 0) {
		return fmt.Errorf("cachesim: relative precision %v must be >= 0: %w", c.RelPrecision, workload.ErrInvalid)
	}
	return nil
}

func (c Config) params() workload.Params {
	if c.RawParams {
		return c.Workload
	}
	return c.Workload.ForProtocol(c.Protocol.Mods)
}
