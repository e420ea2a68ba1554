// Package resilience supplies the count-based per-key circuit breaker
// shared by the campaign runner, which keys it by ladder stage, and the
// distributed coordinator, which keys it by worker.
package resilience

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Breaker is a count-based per-key circuit breaker. Each key (a ladder
// stage name in the campaign runner) accumulates *consecutive* failures;
// reaching Threshold opens the circuit and Allow starts answering false,
// so subsequent work skips the stage instead of re-burning its budget.
//
// An open circuit optionally half-opens: every ProbeEvery-th Allow call
// on an open key answers true once, letting a single probe through. A
// recorded success (probe or otherwise) closes the circuit and zeroes the
// failure count.
//
// The breaker is deliberately count-based rather than time-based: its
// decisions are a pure function of the Allow/Success/Failure call
// sequence, which keeps campaign runs reproducible and testable.
//
// A key with history and a zero state — no failures, closed, nothing
// skipped — is clean: Success leaves it as it is, so it answers from an
// immutable clean-key set without the lock. Every locked Success and
// Restore, and a Failure of a clean key, republishes the set, so the common case of a
// healthy stage succeeding costs no shared write.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	probe     int
	keys      map[string]*breakerKey

	clean atomic.Pointer[[]string] // immutable; replaced by publish
}

type breakerKey struct {
	fails   int  // consecutive failures
	open    bool // circuit open: Allow answers false
	skipped int  // Allow=false answers since the circuit opened
}

// BreakerState is the serializable snapshot of one key, used to journal
// breaker decisions so a resumed campaign restores them.
type BreakerState struct {
	Key      string `json:"key"`
	Failures int    `json:"failures"`
	Open     bool   `json:"open"`
}

// NewBreaker returns a breaker that opens a key after threshold
// consecutive failures (values < 1 mean 1) and, when probeEvery > 0,
// lets one probe through per probeEvery skipped calls.
func NewBreaker(threshold, probeEvery int) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, probe: probeEvery, keys: map[string]*breakerKey{}}
}

func (b *Breaker) key(k string) *breakerKey {
	s, ok := b.keys[k]
	if !ok {
		s = &breakerKey{}
		b.keys[k] = s
	}
	return s
}

// isClean reports whether k is in the published clean-key set.
func (b *Breaker) isClean(k string) bool {
	if c := b.clean.Load(); c != nil {
		for _, ck := range *c {
			if ck == k {
				return true
			}
		}
	}
	return false
}

// publish republishes the clean-key set. It runs under mu after every
// locked Success and Restore and after a clean key's Failure. A key
// Allow or Open created joins the set at its first Success.
func (b *Breaker) publish() {
	clean := make([]string, 0, len(b.keys))
	for k, s := range b.keys {
		if *s == (breakerKey{}) {
			clean = append(clean, k)
		}
	}
	b.clean.Store(&clean)
}

// Allow reports whether work keyed k should be attempted. On an open
// circuit it answers false, except for the periodic half-open probe.
func (b *Breaker) Allow(k string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k)
	if !s.open {
		return true
	}
	s.skipped++
	if b.probe > 0 && s.skipped%b.probe == 0 {
		breakerProbes.Inc()
		return true // half-open probe
	}
	return false
}

// Success records a successful attempt of k, closing its circuit.
func (b *Breaker) Success(k string) {
	if b.isClean(k) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k)
	if s.open {
		breakerClosed.Inc()
	}
	*s = breakerKey{}
	b.publish()
}

// Failure records a failed attempt of k and reports whether the circuit
// is now open.
func (b *Breaker) Failure(k string) (open bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k)
	wasClean := *s == (breakerKey{})
	s.fails++
	if s.fails >= b.threshold && !s.open {
		s.open = true
		breakerOpened.Inc()
	}
	if wasClean {
		b.publish() // k leaves the clean set
	}
	return s.open
}

// Open reports whether k's circuit is currently open.
func (b *Breaker) Open(k string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.key(k).open
}

// Snapshot returns the state of every key with history, sorted by key so
// the snapshot is deterministic.
func (b *Breaker) Snapshot() []BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BreakerState, 0, len(b.keys))
	for k, s := range b.keys {
		out = append(out, BreakerState{Key: k, Failures: s.fails, Open: s.open})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore reinstates previously snapshotted key states (used when a
// resumed campaign replays journaled breaker decisions).
func (b *Breaker) Restore(states []BreakerState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, st := range states {
		s := b.key(st.Key)
		s.fails = st.Failures
		s.open = st.Open
	}
	b.publish()
}
