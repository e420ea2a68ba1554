package trace

import (
	"math"
	"testing"

	"snoopmva/internal/workload"
)

func genCfg(n int) GeneratorConfig {
	return GeneratorConfig{
		N:        n,
		Workload: workload.AppendixA(workload.Sharing5),
		Seed:     42,
	}
}

// Every generated reference carries a class that prints with the workload
// enum's names, and the Sharing5 mix draws all three of them.
func TestClassString(t *testing.T) {
	g, err := NewGenerator(genCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		r := g.Next(i % 2)
		seen[r.Class.String()] = true
	}
	if len(seen) != 3 || !seen["private"] || !seen["sro"] || !seen["sw"] {
		t.Errorf("generated class names %v, want private, sro and sw", seen)
	}
	if s := workload.Class(9).String(); s != "Class(9)" {
		t.Errorf("unknown class string %q, want Class(9)", s)
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := genCfg(0)
	if _, err := NewGenerator(bad); err == nil {
		t.Error("N=0 accepted")
	}
	bad = genCfg(2)
	bad.Workload.HSw = 2
	if _, err := NewGenerator(bad); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := NewGenerator(genCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(genCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := i % 2
		ra := a.Next(p)
		rb := b.Next(p)
		if ra != rb {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestGeneratorMatchesTargets(t *testing.T) {
	g, err := NewGenerator(genCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.AppendixA(workload.Sharing5)
	const n = 200000
	var classCount [3]int
	var writes [3]int
	// Shadow LRU of the private working-set capacity: the fraction of
	// private references hitting it should track h_private.
	var lru []uint32
	const lruCap = 128
	reuse, privRefs := 0, 0
	for i := 0; i < n; i++ {
		r := g.Next(0)
		classCount[r.Class]++
		if r.Write {
			writes[r.Class]++
		}
		if r.Class == workload.Private {
			privRefs++
			hitAt := -1
			for j, b := range lru {
				if b == r.Block {
					hitAt = j
					break
				}
			}
			if hitAt >= 0 {
				reuse++
				lru = append(lru[:hitAt], lru[hitAt+1:]...)
			} else if len(lru) >= lruCap {
				lru = lru[1:]
			}
			lru = append(lru, r.Block)
		}
	}
	// Stream mix ~ (0.95, 0.03, 0.02).
	if f := float64(classCount[workload.Private]) / n; math.Abs(f-w.PPrivate) > 0.01 {
		t.Errorf("private fraction = %v, want %v", f, w.PPrivate)
	}
	if f := float64(classCount[workload.SW]) / n; math.Abs(f-w.PSw) > 0.005 {
		t.Errorf("sw fraction = %v, want %v", f, w.PSw)
	}
	// Read ratio: private writes ~ 30%.
	if f := float64(writes[workload.Private]) / float64(classCount[workload.Private]); math.Abs(f-(1-w.RPrivate)) > 0.01 {
		t.Errorf("private write fraction = %v, want %v", f, 1-w.RPrivate)
	}
	// SRO never writes.
	if writes[workload.SRO] != 0 {
		t.Errorf("sro writes = %d", writes[workload.SRO])
	}
	// Reuse (a proxy for hit rate) should be near h_private once warm.
	if f := float64(reuse) / float64(privRefs); math.Abs(f-w.HPrivate) > 0.03 {
		t.Errorf("private reuse = %v, want ~%v", f, w.HPrivate)
	}
}

func TestGeneratorWorkingSetBounded(t *testing.T) {
	g, err := NewGenerator(genCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		g.Next(0)
	}
	if got := len(g.sets[0][workload.SW]); got > workload.SWCapacity {
		t.Errorf("sw working set grew to %d, cap %d", got, workload.SWCapacity)
	}
}
