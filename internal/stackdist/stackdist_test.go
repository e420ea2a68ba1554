package stackdist

import (
	"math"
	"testing"
	"testing/quick"

	"snoopmva/internal/trace"
	"snoopmva/internal/workload"
)

func TestHandComputedDistances(t *testing.T) {
	p := New()
	// Sequence: A B C A A B — distances: cold, cold, cold, 2, 0, 2.
	ids := []uint64{1, 2, 3, 1, 1, 2}
	want := []int{-1, -1, -1, 2, 0, 2}
	for i, id := range ids {
		if got := p.Touch(id); got != want[i] {
			t.Errorf("ref %d: distance %d, want %d", i, got, want[i])
		}
	}
	if p.Refs() != 6 || p.ColdMisses() != 3 || p.Distinct() != 3 {
		t.Errorf("counters: refs=%d cold=%d distinct=%d", p.Refs(), p.ColdMisses(), p.Distinct())
	}
	// Capacity 1 catches only the distance-0 hit: 1/6.
	if got := p.HitRate(1); !approx(got, 1.0/6.0) {
		t.Errorf("HitRate(1) = %v", got)
	}
	// Capacity 3 catches all three re-references: 3/6.
	if got := p.HitRate(3); !approx(got, 0.5) {
		t.Errorf("HitRate(3) = %v", got)
	}
	if p.HitRate(0) != 0 {
		t.Error("HitRate(0) must be 0")
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestHitRateMonotoneInCapacityQuick(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		p := New()
		for _, b := range raw {
			p.Touch(uint64(b % 32))
		}
		prev := 0.0
		for c := 0; c <= 34; c++ {
			h := p.HitRate(c)
			if h < prev-1e-15 || h < 0 || h > 1 {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCyclicPattern(t *testing.T) {
	// Round-robin over k blocks: every re-reference has distance k−1, so a
	// cache of size k−1 gets zero hits and size k gets everything.
	const k = 8
	p := New()
	for i := 0; i < 10*k; i++ {
		p.Touch(uint64(i % k))
	}
	if got := p.HitRate(k - 1); got != 0 {
		t.Errorf("HitRate(k-1) = %v, want 0 (LRU's cyclic pathology)", got)
	}
	wantFull := float64(10*k-k) / float64(10*k)
	if got := p.HitRate(k); !approx(got, wantFull) {
		t.Errorf("HitRate(k) = %v, want %v", got, wantFull)
	}
}

func TestCapacityFor(t *testing.T) {
	p := New()
	for i := 0; i < 1000; i++ {
		p.Touch(uint64(i % 10))
	}
	c, err := p.CapacityFor(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if c != 10 {
		t.Errorf("CapacityFor(0.9) = %d, want 10", c)
	}
	// 99.5% is above the compulsory-miss bound (10 cold misses in 1000).
	if _, err := p.CapacityFor(0.9999); err == nil {
		t.Error("unreachable target accepted")
	}
	if _, err := p.CapacityFor(-0.1); err == nil {
		t.Error("bad target accepted")
	}
	if _, err := New().CapacityFor(0.5); err == nil {
		t.Error("empty profile accepted")
	}
	// Target 0 is achieved by capacity 0.
	c0, err := p.CapacityFor(0)
	if err != nil || c0 != 0 {
		t.Errorf("CapacityFor(0) = %d, %v", c0, err)
	}
}

func TestCurveAndHistogram(t *testing.T) {
	p := New()
	for _, id := range []uint64{1, 2, 1, 2, 3, 1} {
		p.Touch(id)
	}
	pts := p.Curve([]int{1, 2, 4})
	if len(pts) != 3 || pts[0].Capacity != 1 {
		t.Fatalf("curve: %+v", pts)
	}
	if pts[2].HitRate < pts[0].HitRate {
		t.Error("curve not monotone")
	}
	h := p.Histogram()
	var total int64
	for _, v := range h {
		total += v
	}
	if total+p.ColdMisses() != p.Refs() {
		t.Errorf("histogram mass %d + cold %d != refs %d", total, p.ColdMisses(), p.Refs())
	}
	// Histogram is a copy.
	if len(h) > 0 {
		h[0] = 999999
		if p.Histogram()[0] == 999999 {
			t.Error("Histogram leaked internal state")
		}
	}
}

// The workload generator's private stream targets h_private with a working
// set of 128 blocks; the measured stack-distance curve must place the
// h_private knee near that working-set size.
func TestProfileOfGeneratedTrace(t *testing.T) {
	g, err := trace.NewGenerator(trace.GeneratorConfig{
		N: 1, Workload: workload.AppendixA(workload.Sharing5), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	for i := 0; i < 150000; i++ {
		r := g.Next(0)
		if r.Class == workload.Private {
			p.Touch(uint64(r.Block))
		}
	}
	// At the generator's working-set size the hit rate must be close to
	// the configured target; at 1/8 the size it must be clearly lower.
	atWS := p.HitRate(128)
	if math.Abs(atWS-0.95) > 0.05 {
		t.Errorf("hit rate at working-set size = %v, want ~0.95", atWS)
	}
	small := p.HitRate(16)
	if small >= atWS-0.02 {
		t.Errorf("hit rate should drop for small caches: h(16)=%v vs h(128)=%v", small, atWS)
	}
}
