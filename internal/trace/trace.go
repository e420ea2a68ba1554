// Package trace synthesizes memory-reference traces for the
// multiprocessor: a generator driven by the paper's workload parameters,
// over the block geometry of internal/workload. Traces feed the
// parameter-fitting package (internal/fit), which closes the paper's
// "workload measurement studies" loop, and the stack-distance profiles of
// the cache-sizing example. There is no trace file format: no recorded
// trace is checked in to read.
package trace

import (
	"fmt"

	"snoopmva/internal/sim"
	"snoopmva/internal/workload"
)

// Ref is one memory reference. Block identifies a cache block within the
// class's pool: private pools are per-processor, shared pools are global.
type Ref struct {
	Proc  uint16
	Class workload.Class
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
}

// Validate checks the configuration.
func (c GeneratorConfig) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("trace: N=%d < 1", c.N)
	}
	return c.Workload.Validate()
}

// Generator synthesizes reference streams whose stream mix, read ratios
// and hit rates match the workload parameters: a "hit" reuses a block from
// the processor's per-class recency set, a "miss" brings in a block from
// outside it (evicting the oldest).
type Generator struct {
	cfg  GeneratorConfig
	rng  []*sim.RNG
	sets [][3][]uint32 // sets[p][class] = recency set, most recent last
}

// NewGenerator builds a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg}
	root := sim.NewRNG(cfg.Seed)
	g.rng = make([]*sim.RNG, cfg.N)
	g.sets = make([][3][]uint32, cfg.N)
	for p := range g.rng {
		g.rng[p] = root.Split()
	}
	return g, nil
}

// Next returns the next reference for processor p.
func (g *Generator) Next(p int) Ref {
	rng := g.rng[p]
	w := g.cfg.Workload
	cls := workload.Class(rng.Choose([]float64{w.PPrivate, w.PSro, w.PSw}))
	var write bool
	var hitRate float64
	switch cls {
	case workload.Private:
		write = !rng.Bernoulli(w.RPrivate)
		hitRate = w.HPrivate
	case workload.SRO:
		hitRate = w.HSro
	case workload.SW:
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
		pool := cls.Blocks()
		for {
			block = uint32(rng.Intn(pool))
			if !contains(set, block) {
				break
			}
		}
		if len(set) >= cls.Capacity() {
			copy(set, set[1:]) // evict oldest
			set = set[:len(set)-1]
		}
		set = append(set, block)
	}
	g.sets[p][cls] = set
	return Ref{Proc: uint16(p), Class: cls, Write: write, Block: block}
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
