package snoopmva

import (
	"context"

	"snoopmva/internal/obs"
	"snoopmva/internal/solvecache"
)

// This file is the high-throughput solve layer: CachedSolver memoizes the
// deterministic solvers behind a sharded, concurrency-safe cache
// (internal/solvecache) keyed by a canonical FNV fingerprint of the full
// solver input, with singleflight coalescing so concurrent identical
// solves run the underlying computation exactly once. Every model in this
// repository is a pure function of its inputs (the simulator included —
// its streams are seeded), which is what makes memoization sound: a cached
// value is bit-for-bit the value the solver would recompute (DESIGN.md
// §11).

// CacheStats is a point-in-time snapshot of a CachedSolver's counters.
type CacheStats struct {
	// Hits counts lookups served from a resident entry without solving.
	Hits uint64
	// Misses counts lookups that ran an underlying solve.
	Misses uint64
	// Coalesced counts lookups that piggybacked on a concurrent identical
	// solve instead of starting their own.
	Coalesced uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Entries is the current resident entry count.
	Entries int
}

// HitRate returns the fraction of lookups that did not run a solve of
// their own (hits plus coalesced over all lookups); zero before any
// lookup.
func (s CacheStats) HitRate() float64 {
	return solvecache.Stats{Hits: s.Hits, Misses: s.Misses, Coalesced: s.Coalesced}.HitRate()
}

// CachedSolver is the memoizing Solver: the package-level solvers behind
// a bounded memoization cache. Construct with NewCachedSolver; a
// CachedSolver is safe for concurrent use by any number of goroutines,
// and a single instance is meant to be shared process-wide (each
// instance has its own cache).
//
// Two configurations share a cache entry exactly when every input that
// affects the solution is identical: protocol modification set (preset
// names are irrelevant — WithMods(1,2,3) and Illinois() hit the same
// entry), workload parameters bit-for-bit, timing constants (the zero
// Timing and DefaultTiming() are canonicalized to the same key), solver
// options, system size, and — for SolveBest — the stage budget. Failed
// solves are never cached: the error propagates to every caller of that
// flight and the next call retries.
//
// Cancellation note: when concurrent identical solves coalesce, the
// computation runs under the context of whichever caller started it; if
// that context fires, every coalesced caller observes the resulting
// ErrCanceled (and nothing is cached). Callers with independent deadlines
// that must not share fate should use Direct.
type CachedSolver struct {
	cache *solvecache.Cache
}

// NewCachedSolver returns a CachedSolver bounded to roughly capacity
// resident results (capacity <= 0 means a default of 16384, comfortably
// above the paper's full design-space grid).
func NewCachedSolver(capacity int) *CachedSolver {
	return &CachedSolver{cache: solvecache.New(capacity)}
}

// Stats returns a snapshot of the cache counters.
func (c *CachedSolver) Stats() CacheStats {
	s := c.cache.Stats()
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Coalesced: s.Coalesced,
		Evictions: s.Evictions,
		Entries:   s.Entries,
	}
}

// Purge drops every cached result (counters are preserved).
func (c *CachedSolver) Purge() { c.cache.Purge() }

// RegisterMetrics bridges this solver's cache counters into reg as
// "snoopmva_solvecache_*" gauges labeled cache=label, read fresh at every
// exposition (see DESIGN.md §12). Several CachedSolvers can share a
// registry under distinct labels.
func (c *CachedSolver) RegisterMetrics(reg *obs.Registry, label string) {
	c.cache.RegisterMetrics(reg, "snoopmva_solvecache", label)
}

// Solve is the cached Solve: identical to the package-level function,
// bitwise, except that repeated and concurrent identical calls solve once.
func (c *CachedSolver) Solve(p Protocol, w Workload, n int) (Result, error) {
	return c.SolveWithContext(context.Background(), p, w, Timing{}, n, Options{})
}

// SolveWithContext is the cached SolveWithContext. The hit path is
// allocation-free: the input is encoded into a pooled builder and probed
// with Cache.Lookup; only a miss finalizes a canonical key and enters
// the singleflight Do.
func (c *CachedSolver) SolveWithContext(ctx context.Context, p Protocol, w Workload, t Timing, n int, opts Options) (res Result, err error) {
	defer guard(&err)
	b := solvecache.AcquireKey()
	appendSolveKey(b, p, w, t, n, opts)
	if v, ok := c.cache.Lookup(b); ok {
		b.Release()
		return owned(v), nil
	}
	k := b.Key()
	b.Release()
	v, err := c.cache.Do(k, func() (any, error) {
		r, serr := SolveWithContext(ctx, p, w, t, n, opts)
		if serr != nil {
			return nil, serr
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}
	return owned(v), nil
}

// SolveBest is the cached SolveBest: the full budget participates in the
// key, so differently-budgeted ladders are distinct entries. The cached
// value carries its provenance (Method/Degraded/FallbackReason) exactly as
// computed.
func (c *CachedSolver) SolveBest(ctx context.Context, p Protocol, w Workload, n int, b Budget) (best Result, err error) {
	defer guard(&err)
	v, err := c.cache.Do(bestKey(p, w, n, b), func() (any, error) {
		r, serr := SolveBest(ctx, p, w, n, b)
		if serr != nil {
			return nil, serr
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}
	return owned(v), nil
}

// PeekSolveBest probes the cache for a SolveBest result computed under
// exactly this budget, never solving on a miss. It is the brownout
// fast path of the serving layer: under overload a resident
// full-fidelity answer beats a degraded fresh one, but starting a GTPN
// stage is exactly what an overloaded server must not do.
func (c *CachedSolver) PeekSolveBest(p Protocol, w Workload, n int, b Budget) (Result, bool) {
	v, ok := c.cache.Peek(bestKey(p, w, n, b))
	if !ok {
		return Result{}, false
	}
	return owned(v), true
}

// owned returns cached answer v as the caller's own copy, Observed
// included, so no caller can change what the next hit returns. MVA
// answers carry no Observed: their hits stay allocation-free.
func owned(v any) Result {
	r := v.(Result)
	if r.Observed != nil {
		o := *r.Observed
		r.Observed = &o
	}
	return r
}

// --- canonical cache keys ---
//
// Every field that can change a solver's output — and nothing else —
// participates in the key. Floats are keyed by bit pattern (the solvers
// are deterministic functions of the bits), the zero Timing is
// canonicalized to the paper defaults it means, and protocol presets key
// by modification set + write-through base so equal protocols share
// entries regardless of how they were constructed.

func keyProtocol(b *solvecache.KeyBuilder, p Protocol) {
	b.Uint(uint64(p.inner.Mods))
	b.Bool(p.inner.WriteThroughBase)
}

func keyWorkload(b *solvecache.KeyBuilder, w Workload) {
	b.Float(w.Tau)
	b.Float(w.PPrivate).Float(w.PSro).Float(w.PSw)
	b.Float(w.HPrivate).Float(w.HSro).Float(w.HSw)
	b.Float(w.RPrivate).Float(w.RSw)
	b.Float(w.AmodPrivate).Float(w.AmodSw)
	b.Float(w.CsupplySro).Float(w.CsupplySw)
	b.Float(w.WbCsupply)
	b.Float(w.RepP).Float(w.RepSw)
	b.Bool(w.FixedParams)
}

func keyTiming(b *solvecache.KeyBuilder, t Timing) {
	// Canonicalize through the same path the solver uses, so Timing{} and
	// DefaultTiming() build the same key.
	it := t.internal()
	b.Float(it.TSupply).Float(it.TWrite).Float(it.TInval)
	b.Float(it.DMem)
	b.Int(int64(it.BlockSize))
	b.Float(it.TBlock)
}

func keyOptions(b *solvecache.KeyBuilder, o Options) {
	b.Float(o.Tolerance)
	b.Int(int64(o.MaxIterations))
	b.Bool(o.NoCacheInterference).Bool(o.NoMemoryInterference)
	b.Bool(o.NoResidualLife).Bool(o.ExponentialBus)
	b.Bool(o.NoArrivalCorrection).Bool(o.SplitTransactionBus)
}

// appendSolveKey canonicalizes one Solve input into a pooled builder.
// The hit path probes the encoding with Cache.Lookup and never
// finalizes, so a cached solve encodes, hashes and looks up without a
// single allocation.
//
//snoop:hotpath runs on every cached solve; appends into the pooled builder's reused buffer
func appendSolveKey(b *solvecache.KeyBuilder, p Protocol, w Workload, t Timing, n int, opts Options) {
	b.String("mva")
	keyProtocol(b, p)
	keyWorkload(b, w)
	keyTiming(b, t)
	keyOptions(b, opts)
	b.Int(int64(n))
}

// appendBestKey canonicalizes one SolveBest input into a pooled builder.
//
//snoop:hotpath runs on every cached SolveBest; appends into the pooled builder's reused buffer
func appendBestKey(b *solvecache.KeyBuilder, p Protocol, w Workload, n int, bg Budget) {
	b.String("best")
	keyProtocol(b, p)
	keyWorkload(b, w)
	b.Int(int64(n))
	b.Int(int64(bg.MaxStates))
	b.Int(int64(bg.GTPNTimeout))
	b.Int(bg.SimCycles)
	b.Int(int64(bg.SimTimeout))
	b.Uint(bg.Seed)
}

// bestKey finalizes a canonical Key for the SolveBest miss path.
func bestKey(p Protocol, w Workload, n int, bg Budget) solvecache.Key {
	b := solvecache.AcquireKey()
	appendBestKey(b, p, w, n, bg)
	k := b.Key()
	b.Release()
	return k
}
