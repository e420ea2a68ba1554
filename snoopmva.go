// Package snoopmva is the public API of this repository: an accurate and
// efficient performance-analysis toolkit for multiprocessor snooping
// cache-consistency protocols, reproducing Vernon, Lazowska & Zahorjan
// (ISCA 1988).
//
// Three models of the same machine are provided, in increasing cost:
//
//   - Solve — the paper's customized mean-value-analysis (MVA) model:
//     closed-form equations iterated to a fixed point, microseconds per
//     configuration, any system size;
//   - SolveDetailedContext — a Generalized Timed Petri Net model solved
//     exactly over its reachability graph (the paper's expensive
//     comparator; small systems only);
//   - SimulateContext — a cycle-level discrete-event simulation executing
//     the real per-block protocol state machines (the independent check).
//
// Protocols are expressed as Goodman's Write-Once protocol plus any
// combination of the paper's four modifications; the classic named
// protocols (Illinois, Berkeley, Dragon, RWB, Synapse, write-through) are
// provided as presets.
//
// Quick start:
//
//	w := snoopmva.AppendixA(snoopmva.Sharing5)
//	res, err := snoopmva.Solve(snoopmva.WriteOnce(), w, 10)
//	if err != nil { ... }
//	fmt.Println(res.Speedup)
package snoopmva

import (
	"fmt"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// Sharing selects one of the paper's three Appendix A sharing levels.
type Sharing int

// The paper's sharing levels: the fractions of references to shared
// (read-only + writable) data.
const (
	Sharing1  Sharing = 1
	Sharing5  Sharing = 5
	Sharing20 Sharing = 20
)

func (s Sharing) internal() (workload.Sharing, error) {
	is, err := workload.SharingPercent(int(s))
	if err != nil {
		return 0, fmt.Errorf("snoopmva: %w", err)
	}
	return is, nil
}

// Workload holds the paper's basic workload parameters (Section 2.3).
// Construct with AppendixA and adjust fields, or fill it directly; all
// probabilities are in [0,1] and the three stream probabilities must sum
// to one. The JSON tags are the schema of the snoopd API's spelled-out
// workload; the binary codec in internal/wire encodes the same struct.
type Workload struct {
	// Tau is the mean processor execution time between memory requests,
	// in cycles.
	Tau float64 `json:"tau"`
	// PPrivate, PSro, PSw partition references into private, shared
	// read-only and shared-writable streams.
	PPrivate float64 `json:"p_private"`
	PSro     float64 `json:"p_sro"`
	PSw      float64 `json:"p_sw"`
	// HPrivate, HSro, HSw are per-stream cache hit rates.
	HPrivate float64 `json:"h_private"`
	HSro     float64 `json:"h_sro"`
	HSw      float64 `json:"h_sw"`
	// RPrivate, RSw are per-stream read probabilities (sro is read-only).
	RPrivate float64 `json:"r_private"`
	RSw      float64 `json:"r_sw"`
	// AmodPrivate, AmodSw are the probabilities that a write hit finds
	// the block already modified.
	AmodPrivate float64 `json:"amod_private"`
	AmodSw      float64 `json:"amod_sw"`
	// CsupplySro, CsupplySw are the probabilities that another cache
	// holds a requested block.
	CsupplySro float64 `json:"csupply_sro"`
	CsupplySw  float64 `json:"csupply_sw"`
	// WbCsupply is the probability the cache supplier holds the block
	// dirty.
	WbCsupply float64 `json:"wb_csupply"`
	// RepP, RepSw are the probabilities that a replaced block is dirty.
	RepP  float64 `json:"rep_p"`
	RepSw float64 `json:"rep_sw"`
	// FixedParams suppresses the paper's automatic per-protocol
	// parameter adjustments (rep_p, rep_sw, h_sw; Appendix A notes).
	FixedParams bool `json:"fixed_params,omitempty"`
}

// AppendixA returns the workload of the paper's experiments at the given
// sharing level. It panics on an unknown level; use Validate for runtime
// checking of custom workloads.
func AppendixA(s Sharing) Workload {
	is, err := s.internal()
	if err != nil {
		panic(err)
	}
	return fromInternalParams(workload.AppendixA(is))
}

// StressWorkload returns the Section 4.3 stress-test parameters
// (deliberately unrealistic, maximal cache interference). Stress runs
// should set FixedParams since the values are meant verbatim.
func StressWorkload() Workload {
	w := fromInternalParams(workload.StressTest())
	w.FixedParams = true
	return w
}

// LoadWorkload reads a workload from a JSON file whose fields carry the
// paper's parameter names ("tau", "p_sw", "h_sw", ...). An optional
// "base" ("1%", "5%" or "20%") seeds every field not given from that
// Appendix A level. The result is validated.
func LoadWorkload(path string) (Workload, error) {
	p, err := workload.LoadParams(path)
	if err != nil {
		return Workload{}, err
	}
	return fromInternalParams(p), nil
}

// Validate checks ranges and the stream partition.
func (w Workload) Validate() error { return w.internal().Validate() }

func (w Workload) internal() workload.Params {
	return workload.Params{
		Tau:      w.Tau,
		PPrivate: w.PPrivate, PSro: w.PSro, PSw: w.PSw,
		HPrivate: w.HPrivate, HSro: w.HSro, HSw: w.HSw,
		RPrivate: w.RPrivate, RSw: w.RSw,
		AmodPrivate: w.AmodPrivate, AmodSw: w.AmodSw,
		CsupplySro: w.CsupplySro, CsupplySw: w.CsupplySw,
		WbCsupply: w.WbCsupply,
		RepP:      w.RepP, RepSw: w.RepSw,
	}
}

func fromInternalParams(p workload.Params) Workload {
	return Workload{
		Tau:      p.Tau,
		PPrivate: p.PPrivate, PSro: p.PSro, PSw: p.PSw,
		HPrivate: p.HPrivate, HSro: p.HSro, HSw: p.HSw,
		RPrivate: p.RPrivate, RSw: p.RSw,
		AmodPrivate: p.AmodPrivate, AmodSw: p.AmodSw,
		CsupplySro: p.CsupplySro, CsupplySw: p.CsupplySw,
		WbCsupply: p.WbCsupply,
		RepP:      p.RepP, RepSw: p.RepSw,
	}
}

// Timing holds the architectural constants (cycles). The zero value means
// the paper's defaults: T_supply = T_write = T_inval = 1, d_mem = 3,
// block size 4 words, T_block = 4. Zero fields are omitted from JSON.
type Timing struct {
	TSupply   float64 `json:"t_supply,omitempty"`
	TWrite    float64 `json:"t_write,omitempty"`
	TInval    float64 `json:"t_inval,omitempty"`
	DMem      float64 `json:"d_mem,omitempty"`
	BlockSize int     `json:"block_size,omitempty"`
	TBlock    float64 `json:"t_block,omitempty"`
}

// DefaultTiming returns the paper's timing constants.
func DefaultTiming() Timing { return Timing(workload.DefaultTiming()) }

func (t Timing) internal() workload.Timing {
	if t == (Timing{}) {
		return workload.DefaultTiming()
	}
	return workload.Timing(t)
}

// Protocol identifies a snooping cache-consistency protocol: Write-Once
// plus a set of the paper's four modifications. The zero value is
// Write-Once.
type Protocol struct {
	inner protocol.Protocol
}

// WriteOnce returns Goodman's base protocol.
func WriteOnce() Protocol { return Protocol{inner: protocol.WriteOnce} }

// WithMods returns Write-Once extended with the given modifications
// (values 1–4, Section 2.2). Invalid numbers or the impractical
// mod-4-without-mod-1 combination yield an error from the solvers.
func WithMods(mods ...int) Protocol {
	var ms protocol.ModSet
	for _, m := range mods {
		if m >= 1 && m <= 4 {
			ms = ms.With(protocol.Mod(m))
		} else {
			// Mark invalid by an impossible combination detected later.
			ms |= 1 << 7
		}
	}
	return Protocol{inner: protocol.Protocol{Name: "", Mods: ms}}
}

// Synapse returns the Synapse protocol preset (modification 3).
func Synapse() Protocol { return Protocol{inner: protocol.Synapse} }

// Berkeley returns the Berkeley protocol preset (modifications 2+3).
func Berkeley() Protocol { return Protocol{inner: protocol.Berkeley} }

// Illinois returns the Illinois protocol preset (modifications 1+2+3).
func Illinois() Protocol { return Protocol{inner: protocol.Illinois} }

// Dragon returns the Dragon protocol preset (all four modifications).
func Dragon() Protocol { return Protocol{inner: protocol.Dragon} }

// RWB returns the RWB protocol preset (modifications 1+3+4).
func RWB() Protocol { return Protocol{inner: protocol.RWB} }

// WriteThrough returns the degenerate all-write-through protocol.
func WriteThrough() Protocol { return Protocol{inner: protocol.WriteThrough} }

// ProtocolByName resolves a named protocol (case-insensitive):
// "Write-Once", "Synapse", "Berkeley", "Illinois", "Dragon", "RWB",
// "Write-Through".
func ProtocolByName(name string) (Protocol, bool) {
	p, ok := protocol.ByName(name)
	return Protocol{inner: p}, ok
}

// Protocols returns all named presets.
func Protocols() []Protocol {
	named := protocol.Named()
	out := make([]Protocol, len(named))
	for i, p := range named {
		out[i] = Protocol{inner: p}
	}
	return out
}

// Name returns the protocol's name ("" for anonymous modification sets).
func (p Protocol) Name() string { return p.inner.Name }

// Mods returns the modification numbers the protocol includes.
func (p Protocol) Mods() []int {
	var out []int
	for _, m := range p.inner.Mods.Mods() {
		out = append(out, int(m))
	}
	return out
}

// HasMod reports whether the protocol includes modification m.
func (p Protocol) HasMod(m int) bool {
	return m >= 1 && m <= 4 && p.inner.Mods.Has(protocol.Mod(m))
}

// String implements fmt.Stringer.
func (p Protocol) String() string { return p.inner.String() }

func (p Protocol) validate() error {
	if p.inner.Mods&(1<<7) != 0 {
		return fmt.Errorf("snoopmva: protocol has invalid modification numbers (use 1-4): %w", workload.ErrInvalid)
	}
	if p.inner.WriteThroughBase {
		return nil
	}
	if err := p.inner.Mods.Valid(); err != nil {
		return fmt.Errorf("%w: %w", workload.ErrInvalid, err)
	}
	return nil
}
