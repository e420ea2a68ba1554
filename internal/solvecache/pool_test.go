package solvecache

import (
	"strings"
	"sync"
	"testing"
)

// mustPanicInvariant runs f and requires it to panic with the package's
// invariant convention.
func mustPanicInvariant(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected invariant panic, got none")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "solvecache: internal invariant violated") {
			t.Fatalf("panic = %v, want solvecache invariant convention", r)
		}
	}()
	f()
}

func TestKeyBuilderFinalizedGuard(t *testing.T) {
	// Every append method, and Key itself, must refuse a finalized builder.
	cases := map[string]func(b *KeyBuilder){
		"String": func(b *KeyBuilder) { b.String("x") },
		"Int":    func(b *KeyBuilder) { b.Int(1) },
		"Uint":   func(b *KeyBuilder) { b.Uint(1) },
		"Float":  func(b *KeyBuilder) { b.Float(1) },
		"Bool":   func(b *KeyBuilder) { b.Bool(true) },
		"Key":    func(b *KeyBuilder) { b.Key() },
	}
	for name, use := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewKey()
			b.String("proto").Int(16)
			_ = b.Key()
			mustPanicInvariant(t, func() { use(b) })
		})
	}
}

func TestAcquireKeyResetsPooledBuilder(t *testing.T) {
	// A builder that went through the pool after finalization must come
	// back empty and open, producing the same key a fresh builder would.
	want := key("proto", 16, 0.35, true)

	b := AcquireKey()
	b.String("unrelated").Int(99)
	_ = b.Key()
	b.Release()

	for i := 0; i < 8; i++ {
		b := AcquireKey()
		got := b.String("proto").Int(int64(16)).Float(0.35).Bool(true).Key()
		b.Release()
		if got != want {
			t.Fatalf("pooled key %v != fresh key %v", got, want)
		}
	}
}

func TestFingerprintMatchesKeyAndDoesNotFinalize(t *testing.T) {
	b := AcquireKey()
	defer b.Release()
	b.String("proto").Int(16)
	fp := b.Fingerprint()
	// Fingerprint must not finalize: further appends are legal.
	b.Float(0.35)
	k := b.Key()
	if fp == k.sum {
		t.Fatalf("fingerprints of different encodings collided (degenerate hash?)")
	}
	b2 := NewKey()
	b2.String("proto").Int(16)
	if b2.Key().sum != fp {
		t.Fatalf("Fingerprint disagrees with Key sum for identical encoding")
	}
}

func TestLookupHitAndMiss(t *testing.T) {
	c := New(0)
	if _, err := c.Do(key("proto", 16), func() (any, error) { return "v16", nil }); err != nil {
		t.Fatal(err)
	}

	b := AcquireKey()
	b.String("proto").Int(16)
	v, ok := c.Lookup(b)
	b.Release()
	if !ok || v.(string) != "v16" {
		t.Fatalf("Lookup hit = %v, %v", v, ok)
	}

	b = AcquireKey()
	b.String("proto").Int(17)
	v, ok = c.Lookup(b)
	b.Release()
	if ok || v != nil {
		t.Fatalf("Lookup miss = %v, %v", v, ok)
	}

	s := c.Stats()
	// One Do miss, one Lookup hit; the Lookup miss counts nothing (the
	// caller falls through to Do, which owns miss accounting).
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestLookupRefreshesLRU(t *testing.T) {
	// The LRU bound is per shard, so pick three keys that land in the
	// same shard and a capacity that gives each shard exactly two slots.
	c := New(2 * numShards)
	var ns []int
	for n := 0; len(ns) < 3; n++ {
		if key("k", n).sum%numShards == 0 {
			ns = append(ns, n)
		}
	}
	mk := func(n int) Key { return key("k", n) }
	for _, n := range ns[:2] {
		n := n
		if _, err := c.Do(mk(n), func() (any, error) { return n, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the older entry via Lookup so the newer one becomes the victim.
	b := AcquireKey()
	b.String("k").Int(int64(ns[0]))
	if _, ok := c.Lookup(b); !ok {
		t.Fatal("expected hit on first key")
	}
	b.Release()
	if _, err := c.Do(mk(ns[2]), func() (any, error) { return ns[2], nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(mk(ns[0])); !ok {
		t.Fatal("refreshed key was evicted despite the Lookup refresh")
	}
	if _, ok := c.Peek(mk(ns[1])); ok {
		t.Fatal("stale key survived eviction; Lookup did not refresh LRU order")
	}
}

func TestLookupIsAllocationFree(t *testing.T) {
	c := New(0)
	if _, err := c.Do(key("proto", 16, 0.35), func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	// Warm the pool so the measurement never hits the pool's New.
	AcquireKey().Release()
	allocs := testing.AllocsPerRun(200, func() {
		b := AcquireKey()
		b.String("proto").Int(16).Float(0.35)
		if _, ok := c.Lookup(b); !ok {
			t.Fatal("expected hit")
		}
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %v/op, want 0", allocs)
	}
}

// encodeKeyFingerprint builds a representative solver key — the field
// count and type mix of a real solve-key encoding — through the pooled
// acquire/append/fingerprint/release path the cache's hit probe uses,
// and returns its fingerprint.
func encodeKeyFingerprint() uint64 {
	b := AcquireKey()
	b.String("bench")
	for i := 0; i < 8; i++ {
		b.Float(1.5 + float64(i))
	}
	for i := 0; i < 8; i++ {
		b.Int(int64(i))
	}
	for i := 0; i < 6; i++ {
		b.Bool(i%2 == 0)
	}
	b.Uint(42)
	sum := b.Fingerprint()
	b.Release()
	return sum
}

// TestEncodeKeyFingerprintIsAllocationFree pins the pooled key encode
// every cache probe starts with at zero allocations.
func TestEncodeKeyFingerprintIsAllocationFree(t *testing.T) {
	if encodeKeyFingerprint() == 0 {
		t.Fatal("degenerate fingerprint")
	}
	allocs := testing.AllocsPerRun(500, func() { _ = encodeKeyFingerprint() })
	if allocs != 0 {
		t.Fatalf("pooled key encode allocates %v/op, want 0", allocs)
	}
}

func TestPooledBuildersUnderRace(t *testing.T) {
	// Concurrent acquire/build/lookup/release storm: with -race this
	// catches any cross-goroutine state bleed through the pool.
	c := New(0)
	const workers = 16
	for n := 0; n < workers; n++ {
		n := n
		if _, err := c.Do(key("w", n), func() (any, error) { return n, nil }); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := AcquireKey()
				b.String("w").Int(int64(w))
				v, ok := c.Lookup(b)
				b.Release()
				if !ok || v.(int) != w {
					panic("cross-builder state bleed")
				}
			}
		}()
	}
	wg.Wait()
}
