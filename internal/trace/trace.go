// Package trace provides memory-reference traces for the multiprocessor:
// a synthetic generator driven by the paper's workload parameters, a
// compact binary serialization, and stream utilities. Traces feed the
// parameter-fitting package (internal/fit), which closes the paper's
// "workload measurement studies" loop, and the stack-distance profiles of
// the cache-sizing example.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"snoopmva/internal/sim"
	"snoopmva/internal/workload"
)

// Class labels the three reference streams of Section 2.3.
type Class uint8

const (
	// Private references touch per-processor data.
	Private Class = iota
	// SRO references touch shared read-only data.
	SRO
	// SW references touch shared-writable data.
	SW
	numClasses
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

// Ref is one memory reference. Block identifies a cache block within the
// class's pool: private pools are per-processor, shared pools are global.
type Ref struct {
	Proc  uint16
	Class Class
	Write bool
	Block uint32
}

// GeneratorConfig parameterizes the synthetic generator.
type GeneratorConfig struct {
	// N is the number of processors.
	N int
	// Workload supplies the stream mix, read ratios and target hit rates.
	Workload workload.Params
	// Seed fixes the streams.
	Seed uint64
	// Pool sizes (block identities) per class; zero values mean
	// 64 sw / 256 sro / 512 private-per-processor.
	SWBlocks, SROBlocks, PrivBlocks int
	// Working-set sizes: hits are drawn from a recency set of this many
	// blocks per class; zero values mean 16 sw / 64 sro / 128 private.
	SWWorkingSet, SROWorkingSet, PrivWorkingSet int
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.SWBlocks == 0 {
		c.SWBlocks = 64
	}
	if c.SROBlocks == 0 {
		c.SROBlocks = 256
	}
	if c.PrivBlocks == 0 {
		c.PrivBlocks = 512
	}
	if c.SWWorkingSet == 0 {
		c.SWWorkingSet = 16
	}
	if c.SROWorkingSet == 0 {
		c.SROWorkingSet = 64
	}
	if c.PrivWorkingSet == 0 {
		c.PrivWorkingSet = 128
	}
	return c
}

// Validate checks the configuration.
func (c GeneratorConfig) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("trace: N=%d < 1", c.N)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	d := c.withDefaults()
	if d.SWWorkingSet > d.SWBlocks || d.SROWorkingSet > d.SROBlocks || d.PrivWorkingSet > d.PrivBlocks {
		return errors.New("trace: working set exceeds pool size")
	}
	return nil
}

// Generator synthesizes reference streams whose stream mix, read ratios
// and hit rates match the workload parameters: a "hit" reuses a block from
// the processor's per-class recency set, a "miss" brings in a block from
// outside it (evicting the oldest).
type Generator struct {
	cfg  GeneratorConfig
	rng  []*sim.RNG
	sets [][][]uint32 // sets[p][class] = recency set, most recent last
}

// NewGenerator builds a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg}
	root := sim.NewRNG(cfg.Seed)
	g.rng = make([]*sim.RNG, cfg.N)
	g.sets = make([][][]uint32, cfg.N)
	for p := 0; p < cfg.N; p++ {
		g.rng[p] = root.Split()
		g.sets[p] = make([][]uint32, numClasses)
	}
	return g, nil
}

func (g *Generator) poolSize(c Class) int {
	switch c {
	case SW:
		return g.cfg.SWBlocks
	case SRO:
		return g.cfg.SROBlocks
	default:
		return g.cfg.PrivBlocks
	}
}

func (g *Generator) wsSize(c Class) int {
	switch c {
	case SW:
		return g.cfg.SWWorkingSet
	case SRO:
		return g.cfg.SROWorkingSet
	default:
		return g.cfg.PrivWorkingSet
	}
}

// Next returns the next reference for processor p. The generator never
// exhausts, so ok is always true.
func (g *Generator) Next(p int) (Ref, bool) {
	rng := g.rng[p]
	w := g.cfg.Workload
	cls := Class(rng.Choose([]float64{w.PPrivate, w.PSro, w.PSw}))
	var write bool
	var hitRate float64
	switch cls {
	case Private:
		write = !rng.Bernoulli(w.RPrivate)
		hitRate = w.HPrivate
	case SRO:
		hitRate = w.HSro
	case SW:
		write = !rng.Bernoulli(w.RSw)
		hitRate = w.HSw
	}
	set := g.sets[p][cls]
	var block uint32
	if rng.Bernoulli(hitRate) && len(set) > 0 {
		// Reuse from the recency set, biased toward recent entries.
		idx := len(set) - 1 - rng.Intn(len(set))
		block = set[idx]
		// Move to most-recent position.
		copy(set[idx:], set[idx+1:])
		set[len(set)-1] = block
	} else {
		// Bring in a block outside the set.
		pool := g.poolSize(cls)
		for {
			block = uint32(rng.Intn(pool))
			if !contains(set, block) {
				break
			}
		}
		if len(set) >= g.wsSize(cls) {
			copy(set, set[1:]) // evict oldest
			set = set[:len(set)-1]
		}
		set = append(set, block)
	}
	g.sets[p][cls] = set
	return Ref{Proc: uint16(p), Class: cls, Write: write, Block: block}, true
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// --- serialization ---

// magic identifies the trace file format.
var magic = [4]byte{'S', 'T', 'R', '1'}

// Writer streams references to an io.Writer in a compact binary format.
type Writer struct {
	w     *bufio.Writer
	count uint64
	began bool
}

// NewWriter creates a trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one reference.
func (tw *Writer) Write(r Ref) error {
	if !tw.began {
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.began = true
	}
	var buf [8]byte
	binary.LittleEndian.PutUint16(buf[0:2], r.Proc)
	flags := byte(r.Class)
	if r.Write {
		flags |= 0x80
	}
	buf[2] = flags
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[4:8], r.Block)
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Flush drains the buffer; call when done.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Count returns the number of references written.
func (tw *Writer) Count() uint64 { return tw.count }

// Reader decodes a trace written by Writer.
type Reader struct {
	r     *bufio.Reader
	began bool
}

// NewReader creates a trace reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Read returns the next reference; io.EOF at end of trace.
func (tr *Reader) Read() (Ref, error) {
	if !tr.began {
		var m [4]byte
		if _, err := io.ReadFull(tr.r, m[:]); err != nil {
			return Ref{}, err
		}
		if m != magic {
			return Ref{}, errors.New("trace: bad magic (not a trace file)")
		}
		tr.began = true
	}
	var buf [8]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Ref{}, errors.New("trace: truncated record")
		}
		return Ref{}, err
	}
	flags := buf[2]
	cls := Class(flags & 0x7f)
	if cls >= numClasses {
		return Ref{}, fmt.Errorf("trace: invalid class %d", cls)
	}
	return Ref{
		Proc:  binary.LittleEndian.Uint16(buf[0:2]),
		Class: cls,
		Write: flags&0x80 != 0,
		Block: binary.LittleEndian.Uint32(buf[4:8]),
	}, nil
}

// ReadAll decodes an entire trace.
func ReadAll(r io.Reader) ([]Ref, error) {
	tr := NewReader(r)
	var out []Ref
	for {
		ref, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
	}
}
