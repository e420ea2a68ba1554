// Package sim provides the deterministic, splittable pseudo-random streams
// used by the detailed multiprocessor simulator (internal/cachesim).
//
// Reproducibility is a design requirement — every simulator run is fully
// determined by its seed, so experiments and tests can pin exact outputs.
package sim

import "math"

// RNG is a SplitMix64 pseudo-random generator. It is small, fast, passes
// BigCrush, and — unlike math/rand's global state — can be split into
// independent streams for per-processor reproducibility.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split returns a new independent stream derived from this one.
func (r *RNG) Split() *RNG {
	// Advance the parent and use the output as the child's seed, xored
	// with a distinct constant so parent and child sequences differ.
	return &RNG{state: r.Uint64() ^ 0xa5a5a5a5deadbeef}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). A non-positive bound panics:
// every caller passes a non-empty list's length, one of cachesim's constant
// pool sizes, or a pool or module count that Config validation has already
// constrained to be >= 1, so this guards an internal invariant, not caller
// input.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: internal invariant violated: Intn bound must be positive (pool and module counts are constants or validated by their Config)")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric draws geometric variates counting the number of trials up to
// and including the first success, with a success probability p in (0,1]
// fixed at construction. The mean is 1/p.
type Geometric struct {
	p    float64
	logQ float64 // log(1-p), taken once rather than on every draw
}

// NewGeometric returns the distribution with success probability p. A
// probability outside (0,1] panics: the only production caller draws think
// times with p = 1/τ after cachesim.New has rejected τ < 1, so this guards
// an internal invariant, not caller input.
func NewGeometric(p float64) Geometric {
	if p <= 0 || p > 1 {
		panic("sim: internal invariant violated: Geometric success probability outside (0,1] (τ >= 1 is enforced by cachesim.New)")
	}
	return Geometric{p: p, logQ: math.Log(1 - p)}
}

// Draw returns one variate from r's stream. With p = 1 it is always 1 and
// consumes no random bits.
func (g Geometric) Draw(r *RNG) int {
	if g.p >= 1 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return 1 + int(math.Log(u)/g.logQ)
}

// Choose returns an index in [0, len(weights)) with probability
// proportional to the weights; negative weights are treated as zero.
// An all-zero or empty weight slice panics: the stream probabilities that
// reach it are validated by workload.Params.Validate (they must sum to 1),
// so this guards an internal invariant, not caller input.
func (r *RNG) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("sim: internal invariant violated: Choose needs a positive weight (stream probabilities are validated by workload.Params)")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point tail: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("sim: unreachable")
}
