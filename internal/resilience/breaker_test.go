package resilience

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(3, 0)
	for i := 0; i < 2; i++ {
		if open := b.Failure("gtpn"); open {
			t.Fatalf("opened after %d failures, threshold 3", i+1)
		}
		if !b.Allow("gtpn") {
			t.Fatalf("closed circuit denied work after %d failures", i+1)
		}
	}
	if open := b.Failure("gtpn"); !open {
		t.Fatal("did not open at threshold")
	}
	for i := 0; i < 10; i++ {
		if b.Allow("gtpn") {
			t.Fatal("open circuit with no probe interval allowed work")
		}
	}
	if b.Allow("simulation") != true {
		t.Fatal("unrelated key affected")
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b := NewBreaker(3, 0)
	b.Failure("gtpn")
	b.Failure("gtpn")
	b.Success("gtpn")
	b.Failure("gtpn")
	b.Failure("gtpn")
	if b.Open("gtpn") {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Failure("gtpn")
	if !b.Open("gtpn") {
		t.Fatal("threshold consecutive failures did not trip")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker(1, 4)
	b.Failure("sim")
	allowed := 0
	for i := 0; i < 8; i++ {
		if b.Allow("sim") {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("open circuit with probeEvery=4 allowed %d of 8, want 2", allowed)
	}
	// A successful probe closes the circuit again.
	b.Success("sim")
	if !b.Allow("sim") {
		t.Fatal("success did not close the circuit")
	}
}

func TestBreakerSnapshotRestore(t *testing.T) {
	b := NewBreaker(2, 0)
	b.Failure("gtpn")
	b.Failure("gtpn")
	b.Failure("simulation")
	snap := b.Snapshot()
	if len(snap) != 2 || snap[0].Key != "gtpn" || !snap[0].Open || snap[1].Key != "simulation" || snap[1].Open {
		t.Fatalf("snapshot = %+v", snap)
	}
	b2 := NewBreaker(2, 0)
	b2.Restore(snap)
	if !b2.Open("gtpn") || b2.Open("simulation") {
		t.Fatal("restore did not reinstate state")
	}
	b2.Failure("simulation")
	if !b2.Open("simulation") {
		t.Fatal("restored failure count lost: one more failure should trip")
	}
}

// refBreaker is the breaker's specification: the plain locked
// implementation, with every call under one mutex and no fast path. It
// also counts the transitions and probes the metrics report.
type refBreaker struct {
	mu                     sync.Mutex
	threshold, probe       int
	keys                   map[string]*breakerKey
	opened, closed, probes uint64
}

func newRefBreaker(threshold, probe int) *refBreaker {
	return &refBreaker{threshold: max(threshold, 1), probe: probe, keys: map[string]*breakerKey{}}
}

func (r *refBreaker) key(k string) *breakerKey {
	if r.keys[k] == nil {
		r.keys[k] = &breakerKey{}
	}
	return r.keys[k]
}

func (r *refBreaker) Allow(k string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.key(k)
	if !s.open {
		return true
	}
	s.skipped++
	if r.probe > 0 && s.skipped%r.probe == 0 {
		r.probes++
		return true
	}
	return false
}

func (r *refBreaker) Success(k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.key(k)
	if s.open {
		r.closed++
	}
	s.fails, s.open, s.skipped = 0, false, 0
}

func (r *refBreaker) Failure(k string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.key(k)
	s.fails++
	if s.fails >= r.threshold && !s.open {
		s.open = true
		r.opened++
	}
	return s.open
}

func (r *refBreaker) Restore(states []BreakerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range states {
		s := r.key(st.Key)
		s.fails, s.open = st.Failures, st.Open
	}
}

func (r *refBreaker) Snapshot() []BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []BreakerState{}
	for k, s := range r.keys {
		out = append(out, BreakerState{Key: k, Failures: s.fails, Open: s.open})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// keyStates copies a breaker's per-key state under its lock, skip counts
// included, which no Snapshot shows.
func keyStates(mu *sync.Mutex, keys map[string]*breakerKey) map[string]breakerKey {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]breakerKey, len(keys))
	for k, s := range keys {
		out[k] = *s
	}
	return out
}

// staleCleanKey returns a key of b's published clean set whose state is
// not zero, which the Success fast path would wrongly leave as it is.
func staleCleanKey(b *Breaker) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.clean.Load(); c != nil {
		for _, k := range *c {
			if *b.keys[k] != (breakerKey{}) {
				return k, true
			}
		}
	}
	return "", false
}

var breakerKeys = []string{"gtpn", "simulation", "mva"}

// breakerOp is one seeded random call: Allow, Success or Failure of a
// key drawn from keys, or a Restore of random states (far more often
// than a campaign restores, so that restored closed keys with leftover
// skip counts meet every other call).
type breakerOp struct {
	kind    int // 0 Allow, 1 Success, 2 Failure, 3 Restore
	key     string
	restore []BreakerState
}

func randomBreakerOps(rng *rand.Rand, keys []string, n int) []breakerOp {
	ops := make([]breakerOp, n)
	for i := range ops {
		op := breakerOp{key: keys[rng.Intn(len(keys))]}
		switch r := rng.Intn(10); {
		case r < 4:
			op.kind = 0
		case r < 6:
			op.kind = 1
		case r < 9:
			op.kind = 2
		default:
			op.kind = 3
			for _, k := range keys {
				if rng.Intn(2) == 0 {
					op.restore = append(op.restore, BreakerState{Key: k, Failures: rng.Intn(4), Open: rng.Intn(2) == 0})
				}
			}
		}
		ops[i] = op
	}
	return ops
}

// applyBreakerOp runs op on b and, unless ref is nil, on the reference
// model too, and reports a decision that differs.
func applyBreakerOp(b *Breaker, ref *refBreaker, op breakerOp) error {
	switch op.kind {
	case 0:
		if got := b.Allow(op.key); ref != nil {
			if want := ref.Allow(op.key); got != want {
				return fmt.Errorf("Allow(%s) = %v, reference %v", op.key, got, want)
			}
		}
	case 1:
		b.Success(op.key)
		if ref != nil {
			ref.Success(op.key)
		}
	case 2:
		if got := b.Failure(op.key); ref != nil {
			if want := ref.Failure(op.key); got != want {
				return fmt.Errorf("Failure(%s) = %v, reference %v", op.key, got, want)
			}
		}
	case 3:
		b.Restore(op.restore)
		if ref != nil {
			ref.Restore(op.restore)
		}
	}
	return nil
}

// TestBreakerMatchesReferenceModel drives seeded random sequences of
// Allow, Success, Failure and Restore over three keys, at several
// thresholds and probe intervals, through the breaker and through the
// locked reference model above. Every decision, every key's state (skip
// counts included), every Snapshot and the transition and probe counts
// must agree.
func TestBreakerMatchesReferenceModel(t *testing.T) {
	for _, threshold := range []int{0, 1, 2, 3, 5} {
		for _, probe := range []int{0, 1, 2, 4} {
			for seed := int64(1); seed <= 8; seed++ {
				b, ref := NewBreaker(threshold, probe), newRefBreaker(threshold, probe)
				opened, closed, probes := breakerOpened.Value(), breakerClosed.Value(), breakerProbes.Value()
				rng := rand.New(rand.NewSource(seed))
				for i, op := range randomBreakerOps(rng, breakerKeys, 1000) {
					if err := applyBreakerOp(b, ref, op); err != nil {
						t.Fatalf("threshold %d, probe %d, seed %d, op %d: %v", threshold, probe, seed, i, err)
					}
					if got, want := keyStates(&b.mu, b.keys), keyStates(&ref.mu, ref.keys); !reflect.DeepEqual(got, want) {
						t.Fatalf("threshold %d, probe %d, seed %d, op %d: key states %+v, reference %+v",
							threshold, probe, seed, i, got, want)
					}
					if k, ok := staleCleanKey(b); ok {
						t.Fatalf("threshold %d, probe %d, seed %d, op %d: published clean key %s has state %+v",
							threshold, probe, seed, i, k, *b.keys[k])
					}
					if got, want := b.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("threshold %d, probe %d, seed %d, op %d: Snapshot %+v, reference %+v",
							threshold, probe, seed, i, got, want)
					}
				}
				if got, want := [3]uint64{breakerOpened.Value() - opened, breakerClosed.Value() - closed, breakerProbes.Value() - probes},
					[3]uint64{ref.opened, ref.closed, ref.probes}; got != want {
					t.Errorf("threshold %d, probe %d, seed %d: opened/closed/probes %v, reference %v",
						threshold, probe, seed, got, want)
				}
			}
		}
	}
}

// TestBreakerConcurrentMatchesReferenceModel runs the same kind of
// sequences from two goroutines on one breaker (run it under -race). Each
// goroutine owns one key and checks its decisions against its own
// reference model — keys are independent, so those are deterministic —
// and both also hammer a shared key, unchecked, so fast-path reads race
// with republications.
func TestBreakerConcurrentMatchesReferenceModel(t *testing.T) {
	for _, probe := range []int{0, 3} {
		b := NewBreaker(2, probe)
		refs := [2]*refBreaker{newRefBreaker(2, probe), newRefBreaker(2, probe)}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				own := breakerKeys[g]
				for i, op := range randomBreakerOps(rng, []string{own, "mva"}, 4000) {
					ref := refs[g]
					if op.key == "mva" && op.kind != 3 {
						ref = nil // shared: both goroutines move it
					}
					var restore []BreakerState
					for _, st := range op.restore {
						if st.Key == own {
							restore = append(restore, st)
						}
					}
					op.restore = restore
					if err := applyBreakerOp(b, ref, op); err != nil {
						errs[g] = fmt.Errorf("goroutine %d, op %d: %w", g, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("probe %d: %v", probe, err)
			}
		}
		var want []BreakerState
		for g, ref := range refs {
			for _, st := range ref.Snapshot() {
				if st.Key == breakerKeys[g] {
					want = append(want, st)
				}
			}
		}
		var got []BreakerState
		for _, st := range b.Snapshot() {
			if st.Key != "mva" {
				got = append(got, st)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("probe %d: final Snapshot %+v, references %+v", probe, got, want)
		}
	}
}
