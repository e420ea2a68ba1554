// Package solvecache is the memoization layer of the high-throughput solve
// path: a sharded, concurrency-safe cache keyed by a canonical fingerprint
// of the full solver input, with singleflight request coalescing so that
// concurrent identical solves run the underlying computation exactly once,
// and a per-shard LRU bound so the resident set stays capped under
// design-space churn.
//
// The package stores opaque values (the root package caches both MVA
// and SolveBest answers through one cache); correctness against
// fingerprint collisions does not rest on the 64-bit FNV hash: the hash
// only selects the shard, while map lookup compares the entire canonical
// key encoding, so two inputs that collide in FNV still occupy distinct
// entries.
//
// Concurrency contract: a cache hit never runs compute; a miss runs it
// exactly once per key per flight, with every concurrent duplicate caller
// blocking on the leader's result (counted by Stats().Coalesced). Failed
// computations are not cached — the error propagates to the leader and all
// coalesced waiters, and the next caller retries.
package solvecache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"snoopmva/internal/obs"
)

// numShards is the shard count. Shard selection uses the key fingerprint,
// so identical keys always meet in the same shard (which is what makes
// per-shard singleflight sufficient).
const numShards = 16

// DefaultCapacity is the total entry bound used when New is given a
// non-positive capacity: comfortably larger than the paper's full
// design-space grid (7 protocols × 3 sharing levels × N=1..100) while
// bounded enough for a long-lived serving process.
const DefaultCapacity = 16384

// Key is the canonical identity of one solver input: a 64-bit FNV-1a
// fingerprint (used for shard selection and cheap inequality) plus the
// exact canonical byte encoding it was computed from (used for collision-
// proof equality). Build one with NewKey.
type Key struct {
	sum   uint64
	canon string
}

// Fingerprint returns the 64-bit FNV-1a fingerprint of the canonical
// encoding.
func (k Key) Fingerprint() uint64 { return k.sum }

// String renders the fingerprint (for logs and debugging).
func (k Key) String() string { return fmt.Sprintf("solvecache:%016x", k.sum) }

// KeyBuilder accumulates the canonical encoding of a solver input. Every
// field is written with a type tag and a fixed-width big-endian encoding
// (strings are length-prefixed), so distinct field sequences can never
// produce the same byte stream by concatenation ambiguity. Floats are
// encoded by their IEEE-754 bit pattern: the cache key distinguishes
// inputs bitwise, exactly matching what the deterministic solvers do.
//
// Builders on a hot path come from the pool: AcquireKey hands out a
// reset builder whose buffer is reused across encodings, and Release
// returns it. A pooled builder may be used for exactly one encoding per
// acquisition; Key finalizes the encoding, after which any further use
// panics (see Key).
type KeyBuilder struct {
	buf       []byte
	finalized bool
}

// builderPool recycles KeyBuilders (and their append buffers) so the
// cache's key encoding allocates nothing in steady state.
var builderPool = sync.Pool{New: func() any {
	return &KeyBuilder{buf: make([]byte, 0, builderBufSize)}
}}

// builderBufSize is the pooled builders' buffer capacity: comfortably
// above the largest canonical solver encoding (a SolveBest key is ~250
// bytes), so steady-state encodings never grow the buffer.
const builderBufSize = 512

// NewKey starts a canonical key encoding on a fresh, unpooled builder.
// Hot paths should prefer AcquireKey/Release, which reuse builders and
// their buffers.
func NewKey() *KeyBuilder { return &KeyBuilder{buf: make([]byte, 0, 256)} }

// AcquireKey returns a pooled builder, reset and ready for one canonical
// encoding. The caller must Release it — after Key, after a Lookup hit,
// or on any early exit — and must not retain any reference past Release.
//
//snoop:hotpath runs on every cached solve; the pool makes it allocation-free
func AcquireKey() *KeyBuilder {
	b := builderPool.Get().(*KeyBuilder)
	b.buf = b.buf[:0]
	b.finalized = false
	return b
}

// Release returns the builder to the pool. The builder must not be used
// afterwards; the next AcquireKey resets it for its next encoding.
//
//snoop:hotpath runs on every cached solve
func (b *KeyBuilder) Release() { builderPool.Put(b) }

// checkOpen panics when the builder is appended to (or finalized) after
// Key already finalized it: a reused builder would silently encode this
// input's fields onto the previous encoding, producing a corrupted key
// that aliases another input's cache entry. With pooled builders that
// corruption would be both silent and cross-request, so it is promoted
// to an invariant panic.
func (b *KeyBuilder) checkOpen() {
	if b.finalized {
		panic("solvecache: internal invariant violated: KeyBuilder reused after Key")
	}
}

func (b *KeyBuilder) tag(t byte) { b.checkOpen(); b.buf = append(b.buf, t) }

func (b *KeyBuilder) u64(v uint64) {
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
}

// String appends a length-prefixed string field.
//
//snoop:hotpath appends into the builder's pre-sized buffer
func (b *KeyBuilder) String(s string) *KeyBuilder {
	b.tag('s')
	b.u64(uint64(len(s)))
	b.buf = append(b.buf, s...)
	return b
}

// Int appends a signed integer field.
//
//snoop:hotpath appends into the builder's pre-sized buffer
func (b *KeyBuilder) Int(v int64) *KeyBuilder {
	b.tag('i')
	b.u64(uint64(v))
	return b
}

// Uint appends an unsigned integer field.
//
//snoop:hotpath appends into the builder's pre-sized buffer
func (b *KeyBuilder) Uint(v uint64) *KeyBuilder {
	b.tag('u')
	b.u64(v)
	return b
}

// Float appends a float field by IEEE-754 bit pattern (NaNs with different
// payloads are distinct keys; the solvers reject non-finite inputs before
// any key is built, so this never matters in practice).
//
//snoop:hotpath appends into the builder's pre-sized buffer
func (b *KeyBuilder) Float(v float64) *KeyBuilder {
	b.tag('f')
	b.u64(math.Float64bits(v))
	return b
}

// Bool appends a boolean field.
//
//snoop:hotpath appends into the builder's pre-sized buffer
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	b.tag('b')
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
	return b
}

// Key finalizes the encoding into a Key. The builder may not be reused
// afterwards — further appends or a second Key panic with the package's
// invariant convention, because a silently reused builder would produce
// a corrupted key aliasing another input's cache entry. (A pooled
// builder is reset by the next AcquireKey, not by Release.) One
// canonical-string allocation is allowed below.
//
//snoop:hotpath finalizes the encoding on every cache miss
func (b *KeyBuilder) Key() Key {
	b.checkOpen()
	b.finalized = true
	//lint:allow hotalloc miss-path finalization: the canonical string must outlive the builder; the hit path uses Cache.Lookup and never materializes it
	return Key{sum: fnvSum(b.buf), canon: string(b.buf)}
}

// Fingerprint returns the 64-bit FNV-1a fingerprint of the encoding so
// far, without finalizing the builder — the allocation-free probe the
// hit path and the benchmarks use.
//
//snoop:hotpath hashes the builder's buffer in place
func (b *KeyBuilder) Fingerprint() uint64 { return fnvSum(b.buf) }

// fnvSum is FNV-1a over p — hash/fnv's algorithm without the hash.Hash
// indirection, so the hot path cannot depend on the escape behavior of
// an interface-shaped accumulator.
//
//snoop:hotpath runs on every cache lookup
func fnvSum(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range p {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a resident entry.
	Hits uint64
	// Misses counts lookups that ran the underlying compute (one per
	// singleflight leader).
	Misses uint64
	// Coalesced counts lookups that piggybacked on another caller's
	// in-flight compute instead of running their own.
	Coalesced uint64
	// Evictions counts entries dropped by the per-shard LRU bound.
	Evictions uint64
	// Entries is the current resident entry count across all shards.
	Entries int
}

// HitRate returns (Hits+Coalesced)/(Hits+Misses+Coalesced): the fraction
// of lookups that did not run a computation of their own — served from a
// resident entry or piggybacked on another caller's in-flight compute.
// Zero when no lookups have happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Cache is a sharded memoization cache with singleflight coalescing. The
// zero value is not usable; construct with New.
type Cache struct {
	shards   [numShards]shard
	perShard int

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

type shard struct {
	mu sync.Mutex
	// entries maps the canonical key encoding to its LRU element, whose
	// Value is *entry. Front of the list is most recently used.
	entries map[string]*list.Element
	lru     list.List
	flights map[string]*flight
}

type entry struct {
	canon string
	value any
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done  chan struct{}
	value any
	err   error
}

// New returns a cache bounded to roughly capacity entries in total
// (distributed across the shards; each shard holds at least one entry).
// capacity <= 0 means DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perShard := capacity / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].flights = make(map[string]*flight)
	}
	return c
}

// Do returns the cached value for key, or runs compute to produce it. When
// several goroutines Do the same key concurrently, exactly one runs
// compute and the rest receive its result (coalescing). A compute error is
// returned to the leader and every coalesced waiter but is not cached. A
// panic inside compute is re-raised in the leader after the waiters have
// been released with an error, so no goroutine is left blocked.
//
//snoop:hotpath the hit path is a shard map lookup and an LRU move
func (c *Cache) Do(key Key, compute func() (any, error)) (any, error) {
	sh := &c.shards[key.sum%numShards]
	sh.mu.Lock()
	if el, ok := sh.entries[key.canon]; ok {
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*entry).value, nil
	}
	if fl, ok := sh.flights[key.canon]; ok {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.value, fl.err
	}
	//lint:allow hotalloc miss-path flight record; the hit path above allocates nothing
	fl := &flight{done: make(chan struct{})}
	sh.flights[key.canon] = fl
	sh.mu.Unlock()
	c.misses.Add(1)

	c.lead(sh, key, fl, compute)
	return fl.value, fl.err
}

// Lookup probes the cache for the builder's current (unfinalized)
// encoding: the allocation-free hit path. A hit refreshes the entry's
// LRU position and counts as a hit, exactly as a Do hit would; a miss
// counts nothing and joins nothing — the caller finalizes the builder
// with Key and falls through to Do, which handles counting, coalescing
// and computing. The map probe converts the builder's buffer in place
// (the compiler's string(bytes)-indexing optimization), so no canonical
// string is materialized.
//
//snoop:hotpath the cache-hit path: one hash, one shard map probe, one LRU move
func (c *Cache) Lookup(b *KeyBuilder) (any, bool) {
	sh := &c.shards[fnvSum(b.buf)%numShards]
	sh.mu.Lock()
	el, ok := sh.entries[string(b.buf)]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.lru.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return el.Value.(*entry).value, true
}

// Peek returns the cached value for key without computing on a miss and
// without joining an in-flight computation — a probe for callers (e.g. a
// browned-out server) that can only afford a resident answer right now.
// A hit refreshes the entry's LRU position and counts as a hit; a miss
// counts nothing, since no computation is ever started.
func (c *Cache) Peek(key Key) (any, bool) {
	sh := &c.shards[key.sum%numShards]
	sh.mu.Lock()
	el, ok := sh.entries[key.canon]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.lru.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return el.Value.(*entry).value, true
}

// lead runs compute as the singleflight leader for key and publishes the
// outcome: on success the value is inserted (with LRU eviction), on error
// nothing is cached, and in both cases the flight is resolved and removed
// so later callers start fresh. The deferred block also runs when compute
// panics — the waiters get errPanic instead of a deadlock and the panic
// continues to the leader's recover boundary.
func (c *Cache) lead(sh *shard, key Key, fl *flight, compute func() (any, error)) {
	completed := false
	defer func() {
		if !completed {
			fl.err = errPanic
		}
		sh.mu.Lock()
		delete(sh.flights, key.canon)
		if fl.err == nil {
			el := sh.lru.PushFront(&entry{canon: key.canon, value: fl.value})
			sh.entries[key.canon] = el
			for sh.lru.Len() > c.perShard {
				oldest := sh.lru.Back()
				sh.lru.Remove(oldest)
				delete(sh.entries, oldest.Value.(*entry).canon)
				c.evictions.Add(1)
			}
		}
		sh.mu.Unlock()
		close(fl.done)
	}()
	fl.value, fl.err = compute()
	completed = true
}

// errPanic is what coalesced waiters observe when the leader's compute
// panicked; the leader itself re-raises the panic.
var errPanic = fmt.Errorf("solvecache: compute panicked in another goroutine")

// Stats returns a snapshot of the counters. The counter fields are each
// individually consistent (atomics); Entries is summed per shard under the
// shard locks.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return s
}

// RegisterMetrics bridges the cache's Stats counters into reg as gauges
// under the given metric-name prefix (e.g. "snoopmva_solvecache"),
// labeled cache=label so several caches can share a registry. The gauges
// read a fresh Stats snapshot at exposition time; nothing is added to the
// lookup hot path.
func (c *Cache) RegisterMetrics(reg *obs.Registry, prefix, label string) {
	l := obs.L("cache", label)
	reg.GaugeFunc(prefix+"_hits_total", "Lookups served from a resident entry.", func() float64 { return float64(c.hits.Load()) }, l)
	reg.GaugeFunc(prefix+"_misses_total", "Lookups that ran the underlying compute.", func() float64 { return float64(c.misses.Load()) }, l)
	reg.GaugeFunc(prefix+"_coalesced_total", "Lookups that piggybacked on an in-flight compute.", func() float64 { return float64(c.coalesced.Load()) }, l)
	reg.GaugeFunc(prefix+"_evictions_total", "Entries dropped by the per-shard LRU bound.", func() float64 { return float64(c.evictions.Load()) }, l)
	reg.GaugeFunc(prefix+"_entries", "Current resident entries across all shards.", func() float64 { return float64(c.Stats().Entries) }, l)
	reg.GaugeFunc(prefix+"_hit_rate", "(Hits+Coalesced)/(Hits+Misses+Coalesced) — the documented Stats.HitRate.", func() float64 { return c.Stats().HitRate() }, l)
}

// Purge drops every resident entry (in-flight computations are unaffected
// and will repopulate on completion). Counters are not reset.
func (c *Cache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*list.Element)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}
