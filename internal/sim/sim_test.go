package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	collisions := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("parent and child streams collided %d times", collisions)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(5) bucket %d count %d, want ~10000", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(4)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(6)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := NewGeometric(0.4).Draw(r)
		if v < 1 {
			t.Fatalf("geometric below 1: %d", v)
		}
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.05 {
		t.Errorf("Geometric(0.4) mean = %v, want ~2.5", mean)
	}
	if NewGeometric(1).Draw(r) != 1 {
		t.Error("Geometric(1) must be 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) should panic")
		}
	}()
	NewGeometric(0)
}

func TestChoose(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 3)
	weights := []float64{1, 0, 3}
	for i := 0; i < 40000; i++ {
		counts[r.Choose(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight option chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("Choose with no positive weights should panic")
		}
	}()
	r.Choose([]float64{0, -1})
}

// Property: Choose always returns a positive-weight index.
func TestChooseValidIndexQuick(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, w := range raw {
			weights[i] = float64(w)
			total += float64(w)
		}
		if total == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			idx := r.Choose(weights)
			if idx < 0 || idx >= len(weights) || weights[idx] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
