// Package workload implements the paper's workload model (Section 2.3):
// the basic parameters of the three probabilistic reference streams
// (private, shared read-only, shared-writable), the Appendix A parameter
// values, the per-protocol parameter adjustments, and the derived model
// inputs computed from them per [VeHo86]. It also holds the vocabulary
// that measuring those parameters shares (counts.go): the reference
// class enum, the block geometry of the simulator, the trace generator
// and the estimator, and the event counts that become a Params.
//
// The derived-input formulas are a documented reconstruction: the paper
// states they "can be computed [VeHo86]" without reprinting them. The
// reconstruction (DESIGN.md §4) follows directly from the protocol
// mechanics of Section 2.2 and reproduces the published speedup tables to
// within a few percent.
package workload

import (
	"errors"
	"fmt"
	"math"

	"snoopmva/internal/protocol"
)

// ErrInvalid marks an error as caused by invalid caller-supplied model
// input (as opposed to a numerical or resource failure during solution).
// All validation errors in this package and in the solver packages wrap
// it, so callers can classify failures with errors.Is.
var ErrInvalid = errors.New("invalid model input")

// Params holds the basic workload parameters of Section 2.3.
type Params struct {
	// Tau is the mean processor execution time between memory requests
	// (exponentially distributed in the detailed models).
	Tau float64

	// PPrivate, PSro, PSw partition memory references into private,
	// shared read-only, and shared-writable streams; they must sum to 1.
	PPrivate float64
	PSro     float64
	PSw      float64

	// HPrivate, HSro, HSw are per-stream cache hit rates.
	HPrivate float64
	HSro     float64
	HSw      float64

	// RPrivate, RSw are the probabilities that a reference is a read,
	// given its stream (the sro stream is read-only by definition).
	RPrivate float64
	RSw      float64

	// AmodPrivate, AmodSw are the probabilities that a write hit finds
	// the block already modified (and is therefore local).
	AmodPrivate float64
	AmodSw      float64

	// CsupplySro, CsupplySw are the probabilities that at least one other
	// cache holds a requested block of the given stream.
	CsupplySro float64
	CsupplySw  float64

	// WbCsupply is the probability that the cache supplier holds the
	// block in state wback (dirty).
	WbCsupply float64

	// RepP, RepSw are the probabilities that a replaced private /
	// shared-writable block is dirty and must be written back on purge.
	RepP  float64
	RepSw float64
}

func checkProb(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("workload: %s = %v outside [0,1]: %w", name, v, ErrInvalid)
	}
	return nil
}

// Validate checks ranges and the stream partition.
func (p Params) Validate() error {
	if math.IsNaN(p.Tau) || math.IsInf(p.Tau, 0) || p.Tau < 0 {
		return fmt.Errorf("workload: tau = %v must be finite and non-negative: %w", p.Tau, ErrInvalid)
	}
	probs := []struct {
		name string
		v    float64
	}{
		{"p_private", p.PPrivate}, {"p_sro", p.PSro}, {"p_sw", p.PSw},
		{"h_private", p.HPrivate}, {"h_sro", p.HSro}, {"h_sw", p.HSw},
		{"r_private", p.RPrivate}, {"r_sw", p.RSw},
		{"amod_private", p.AmodPrivate}, {"amod_sw", p.AmodSw},
		{"csupply_sro", p.CsupplySro}, {"csupply_sw", p.CsupplySw},
		{"wb_csupply", p.WbCsupply},
		{"rep_p", p.RepP}, {"rep_sw", p.RepSw},
	}
	for _, pr := range probs {
		if err := checkProb(pr.name, pr.v); err != nil {
			return err
		}
	}
	if sum := p.PPrivate + p.PSro + p.PSw; math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("workload: stream probabilities sum to %v, want 1: %w", sum, ErrInvalid)
	}
	return nil
}

// Sharing selects one of the three sharing levels of the Appendix A
// workload (the p_private/p_sro/p_sw columns).
type Sharing int

const (
	// Sharing1 is the 1% sharing column (0.99 / 0.01 / 0.00).
	Sharing1 Sharing = iota
	// Sharing5 is the 5% sharing column (0.95 / 0.03 / 0.02).
	Sharing5
	// Sharing20 is the 20% sharing column (0.80 / 0.15 / 0.05).
	Sharing20
)

// String implements fmt.Stringer.
func (s Sharing) String() string {
	switch s {
	case Sharing1:
		return "1%"
	case Sharing5:
		return "5%"
	case Sharing20:
		return "20%"
	default:
		return fmt.Sprintf("Sharing(%d)", int(s))
	}
}

// Percent returns the nominal sharing percentage.
func (s Sharing) Percent() int {
	switch s {
	case Sharing1:
		return 1
	case Sharing5:
		return 5
	case Sharing20:
		return 20
	default:
		return -1
	}
}

// Sharings lists the three paper sharing levels.
func Sharings() []Sharing { return []Sharing{Sharing1, Sharing5, Sharing20} }

// SharingPercent returns the sharing level of a nominal percentage.
func SharingPercent(pct int) (Sharing, error) {
	for _, s := range Sharings() {
		if s.Percent() == pct {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sharing must be 1, 5 or 20 (got %d)", pct)
}

// AppendixA returns the workload parameter values used in the experiments
// of Section 4, for the given sharing level (Appendix A table).
func AppendixA(s Sharing) Params {
	p := Params{
		Tau:         2.5,
		HPrivate:    0.95,
		HSro:        0.95,
		HSw:         0.5,
		RPrivate:    0.7,
		RSw:         0.5,
		AmodPrivate: 0.7,
		AmodSw:      0.3,
		CsupplySro:  0.95,
		CsupplySw:   0.5,
		WbCsupply:   0.3,
		RepP:        0.2,
		RepSw:       0.5,
	}
	switch s {
	case Sharing1:
		p.PPrivate, p.PSro, p.PSw = 0.99, 0.01, 0.00
	case Sharing5:
		p.PPrivate, p.PSro, p.PSw = 0.95, 0.03, 0.02
	case Sharing20:
		p.PPrivate, p.PSro, p.PSw = 0.80, 0.15, 0.05
	default:
		panic(fmt.Sprintf("workload: internal invariant violated: unknown sharing level %d", int(s)))
	}
	return p
}

// StressTest returns the Section 4.3 stress-test parameters: maximal cache
// interference (all blocks cache-supplied, low sw hit rate, heavy sharing,
// no write-backs), values deliberately unrealistic.
func StressTest() Params {
	p := AppendixA(Sharing5)
	p.RepP = 0
	p.RepSw = 0
	p.AmodSw = 0
	p.CsupplySro = 1
	p.CsupplySw = 1
	p.PSw = 0.2
	p.HSw = 0.1
	// Rebalance the stream partition around p_sw = 0.2 keeping the
	// Appendix-A private:sro ratio of the 5% column.
	rest := 1 - p.PSw
	ratio := 0.95 / 0.98
	p.PPrivate = rest * ratio
	p.PSro = rest - p.PPrivate
	return p
}

// ForProtocol returns a copy of p with the Appendix A per-protocol
// adjustments applied:
//
//   - rep_p 0.2 → 0.3 under modification 1 (exclusive fills mean more
//     blocks are dirty when purged);
//   - rep_sw → 0.6 under modification 2 or 3, → 0.7 with both;
//   - h_sw → 0.95 under modifications 1+4 (update writes keep copies
//     valid, so the shared-writable hit rate rises).
//
// The adjustments shift each parameter by the paper's stated delta relative
// to its baseline value, so they compose with customized Params too.
func (p Params) ForProtocol(ms protocol.ModSet) Params {
	q := p
	if ms.Has(protocol.Mod1) {
		q.RepP = clampProb(q.RepP + 0.1)
	}
	m2, m3 := ms.Has(protocol.Mod2), ms.Has(protocol.Mod3)
	switch {
	case m2 && m3:
		q.RepSw = clampProb(q.RepSw + 0.2)
	case m2 || m3:
		q.RepSw = clampProb(q.RepSw + 0.1)
	}
	if ms.Has(protocol.Mod1) && ms.Has(protocol.Mod4) {
		q.HSw = 0.95
	}
	return q
}

func clampProb(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Timing holds the architectural timing constants (Section 2.1 and
// DESIGN.md §4), all in processor cycles.
type Timing struct {
	// TSupply is the cache's time to satisfy the processor once data is
	// available (1.0 in the paper).
	TSupply float64
	// TWrite is the bus access time of a write-word operation.
	TWrite float64
	// TInval is the bus access time of an invalidate operation
	// (modification 3's one-cycle advantage over a two-cycle write-word
	// is discussed in Section 2.2; both default to 1.0 as in [VeHo86]).
	TInval float64
	// DMem is the main-memory latency (3.0 in the paper).
	DMem float64
	// BlockSize is the cache block size in words; main memory is divided
	// into BlockSize interleaved modules (4 in the paper).
	BlockSize int
	// TBlock is the bus occupancy of one cache-block transfer
	// (BlockSize words at one word per cycle).
	TBlock float64
}

// DefaultTiming returns the paper's timing constants.
func DefaultTiming() Timing {
	return Timing{
		TSupply:   1.0,
		TWrite:    1.0,
		TInval:    1.0,
		DMem:      3.0,
		BlockSize: 4,
		TBlock:    4.0,
	}
}

// Validate checks the timing constants.
func (t Timing) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"t_supply", t.TSupply}, {"t_write", t.TWrite}, {"t_inval", t.TInval},
		{"d_mem", t.DMem}, {"t_block", t.TBlock},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return fmt.Errorf("workload: timing %s = %v must be finite and non-negative: %w", c.name, c.v, ErrInvalid)
		}
	}
	if t.BlockSize < 1 {
		return fmt.Errorf("workload: block size %d must be >= 1: %w", t.BlockSize, ErrInvalid)
	}
	return nil
}

// TReadBase returns the bus occupancy of a remote read served by main
// memory without any extra write-backs: one address cycle, the memory
// latency, and the block transfer. The paper treats remote-read bus access
// times as deterministic.
func (t Timing) TReadBase() float64 {
	return 1 + t.DMem + t.TBlock
}

// TReadCacheSupply returns the bus occupancy of a remote read supplied
// directly by another cache: the address cycle plus the block transfer
// (no memory latency on the critical path).
func (t Timing) TReadCacheSupply() float64 {
	return 1 + t.TBlock
}
