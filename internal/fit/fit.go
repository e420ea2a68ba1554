// Package fit estimates the paper's basic workload parameters from a
// memory-reference trace — the "workload measurement studies to aid in the
// assignment of parameter values" the paper's conclusion calls for.
//
// The estimator replays the trace against per-processor, per-class LRU
// shadow caches (with dirty bits, sized by the shared block geometry of
// internal/workload) and counts, in the workload.Counts the simulator
// also fills, exactly the events the parameters describe:
//
//	p_class      class frequencies
//	r_class      read fractions
//	h_class      shadow-cache hit rates
//	amod_class   write hits finding the block dirty
//	csupply_*    misses finding the block resident in another shadow cache
//	wb_csupply   of those, the fraction whose holder is dirty
//	rep_*        evictions of dirty blocks
//
// The shadow caches deliberately ignore coherence actions (no
// invalidations): that is what a measurement study over a raw address
// trace sees, and it matches the "basic parameter" semantics of Section
// 2.3. τ cannot be recovered from a reference trace (it is processor
// speed, not reference behavior) and is taken from the config.
package fit

import (
	"errors"
	"fmt"

	"snoopmva/internal/trace"
	"snoopmva/internal/workload"
)

// Config controls the estimator. The shadow caches hold the shared
// per-class capacities of workload.Class.Capacity.
type Config struct {
	// N is the number of processors in the trace.
	N int
	// Tau is the mean think time to embed in the fitted parameters
	// (not derivable from a reference trace). Zero means 2.5.
	Tau float64
	// Warmup references per processor excluded from counting (cold-start
	// misses would bias the hit rates). Zero means 1000; negative means
	// no warmup.
	Warmup int
}

func (c Config) withDefaults() Config {
	if c.Tau == 0 {
		c.Tau = 2.5
	}
	if c.Warmup == 0 {
		c.Warmup = 1000
	} else if c.Warmup < 0 {
		c.Warmup = 0
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("fit: N=%d < 1", c.N)
	}
	if c.Tau < 0 {
		return fmt.Errorf("fit: negative tau %v", c.Tau)
	}
	return nil
}

// line is one shadow-cache entry.
type line struct {
	block uint32
	dirty bool
}

// shadow is one per-class LRU shadow cache.
type shadow struct {
	cap   int
	lines []line // LRU order: oldest first
}

// lookup finds the block; on hit it is moved to MRU and its dirty flag
// or'd with write. Returns (hit, wasDirtyBeforeWrite).
func (s *shadow) lookup(block uint32, write bool) (bool, bool) {
	for i := range s.lines {
		if s.lines[i].block == block {
			l := s.lines[i]
			wasDirty := l.dirty
			l.dirty = l.dirty || write
			copy(s.lines[i:], s.lines[i+1:])
			s.lines[len(s.lines)-1] = l
			return true, wasDirty
		}
	}
	return false, false
}

// insert adds the block at MRU, evicting LRU if full. Returns whether an
// eviction happened and whether the victim was dirty.
func (s *shadow) insert(block uint32, write bool) (evicted, victimDirty bool) {
	if len(s.lines) >= s.cap {
		evicted = true
		victimDirty = s.lines[0].dirty
		copy(s.lines, s.lines[1:])
		s.lines = s.lines[:len(s.lines)-1]
	}
	s.lines = append(s.lines, line{block: block, dirty: write})
	return evicted, victimDirty
}

// holds reports residency and dirtiness without touching LRU order.
func (s *shadow) holds(block uint32) (bool, bool) {
	for i := range s.lines {
		if s.lines[i].block == block {
			return true, s.lines[i].dirty
		}
	}
	return false, false
}

// Estimate holds the fitted parameters and the counts behind them.
type Estimate struct {
	// Params are the fitted basic parameters (Tau from the config).
	Params workload.Params
	// Counts are the counted (post-warmup) reference events.
	Counts workload.Counts
}

// Fit replays the trace and estimates the parameters.
func Fit(refs []trace.Ref, cfg Config) (*Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(refs) == 0 {
		return nil, errors.New("fit: empty trace")
	}
	// shadows[p][class]
	shadows := make([][3]shadow, cfg.N)
	for p := range shadows {
		for c := range shadows[p] {
			shadows[p][c].cap = workload.Class(c).Capacity()
		}
	}
	seen := make([]int, cfg.N) // references per processor (for warmup)

	var est Estimate
	n := &est.Counts
	for _, r := range refs {
		p := int(r.Proc)
		if p < 0 || p >= cfg.N {
			return nil, fmt.Errorf("fit: reference for processor %d outside N=%d", p, cfg.N)
		}
		if r.Class > workload.SW {
			return nil, fmt.Errorf("fit: invalid class %d", r.Class)
		}
		c := r.Class
		sh := &shadows[p][c]
		counted := seen[p] >= cfg.Warmup
		seen[p]++

		hit, wasDirty := sh.lookup(r.Block, r.Write)
		var evicted, victimDirty bool
		if !hit {
			// For shared classes, check residency elsewhere before insert.
			var holder, dirtyHolder bool
			if c != workload.Private {
				for q := 0; q < cfg.N; q++ {
					if q == p {
						continue
					}
					h, d := shadows[q][c].holds(r.Block)
					holder = holder || h
					dirtyHolder = dirtyHolder || d
				}
			}
			evicted, victimDirty = sh.insert(r.Block, r.Write)
			if counted {
				n.Misses[c]++
				if holder {
					n.HolderMisses[c]++
				}
				if dirtyHolder {
					n.DirtyHolderMisses[c]++
				}
			}
		}
		if !counted {
			continue
		}
		n.Refs[c]++
		if !r.Write {
			n.Reads[c]++
		}
		if hit {
			n.Hits[c]++
			if r.Write {
				n.WriteHits[c]++
				if wasDirty {
					n.DirtyWriteHits[c]++
				}
			}
		}
		if evicted {
			n.Evictions[c]++
			if victimDirty {
				n.DirtyEvictions[c]++
			}
		}
	}
	if n.Refs == [3]int64{} {
		return nil, errors.New("fit: no references survived warmup")
	}
	est.Params = n.Params(cfg.Tau)
	if err := est.Params.Validate(); err != nil {
		return nil, fmt.Errorf("fit: estimated parameters invalid: %w", err)
	}
	return &est, nil
}
