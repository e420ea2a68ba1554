package workload

import "fmt"

// Class labels the three reference streams of Section 2.3.
type Class uint8

const (
	// Private references touch per-processor data.
	Private Class = iota
	// SRO references touch shared read-only data.
	SRO
	// SW references touch shared-writable data.
	SW
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Private:
		return "private"
	case SRO:
		return "sro"
	case SW:
		return "sw"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// The block geometry shared by the simulator, the trace generator and
// the parameter estimator. Pools are much larger than the capacities, so
// a block outside a cache is found in a few random draws.
const (
	// SWBlocks, SROBlocks and PrivBlocks are the pool sizes (block
	// identities) of the shared-writable, shared read-only and private
	// classes; PrivBlocks is per processor.
	SWBlocks   = 64
	SROBlocks  = 256
	PrivBlocks = 512
	// SWCapacity, SROCapacity and PrivCapacity are each cache's residency
	// capacity per class: the simulator's cache size, the generator's
	// working set and the estimator's shadow-cache size.
	SWCapacity   = 16
	SROCapacity  = 64
	PrivCapacity = 128
)

// Blocks returns the class's pool size.
func (c Class) Blocks() int {
	switch c {
	case SW:
		return SWBlocks
	case SRO:
		return SROBlocks
	default:
		return PrivBlocks
	}
}

// Capacity returns the class's residency capacity per cache.
func (c Class) Capacity() int {
	switch c {
	case SW:
		return SWCapacity
	case SRO:
		return SROCapacity
	default:
		return PrivCapacity
	}
}

// Counts tallies, per class (indexed by Class), the reference events the
// basic parameters describe. A measurement fills it; Params turns it into
// the model's inputs.
type Counts struct {
	Refs           [3]int64
	Reads          [3]int64
	Hits           [3]int64
	WriteHits      [3]int64
	DirtyWriteHits [3]int64 // write hits that found the block modified
	Misses         [3]int64
	// HolderMisses are misses that found a copy in another cache;
	// DirtyHolderMisses those whose copy was modified.
	HolderMisses      [3]int64
	DirtyHolderMisses [3]int64
	Evictions         [3]int64
	DirtyEvictions    [3]int64 // evicted blocks that were modified
}

// Params returns the parameters the counts measure, with mean think time
// tau (a reference count cannot measure it). A fraction whose denominator
// is zero is 0, and p_private closes the stream partition exactly.
func (c Counts) Params(tau float64) Params {
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	refs := c.Refs[Private] + c.Refs[SRO] + c.Refs[SW]
	p := Params{
		Tau:  tau,
		PSro: frac(c.Refs[SRO], refs),
		PSw:  frac(c.Refs[SW], refs),

		HPrivate: frac(c.Hits[Private], c.Refs[Private]),
		HSro:     frac(c.Hits[SRO], c.Refs[SRO]),
		HSw:      frac(c.Hits[SW], c.Refs[SW]),

		RPrivate: frac(c.Reads[Private], c.Refs[Private]),
		RSw:      frac(c.Reads[SW], c.Refs[SW]),

		AmodPrivate: frac(c.DirtyWriteHits[Private], c.WriteHits[Private]),
		AmodSw:      frac(c.DirtyWriteHits[SW], c.WriteHits[SW]),

		CsupplySro: frac(c.HolderMisses[SRO], c.Misses[SRO]),
		CsupplySw:  frac(c.HolderMisses[SW], c.Misses[SW]),
		WbCsupply:  frac(c.DirtyHolderMisses[SW], c.HolderMisses[SW]),

		RepP:  frac(c.DirtyEvictions[Private], c.Evictions[Private]),
		RepSw: frac(c.DirtyEvictions[SW], c.Evictions[SW]),
	}
	p.PPrivate = 1 - p.PSro - p.PSw
	return p
}
