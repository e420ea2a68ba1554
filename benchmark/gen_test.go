package main

import (
	"reflect"
	"testing"
)

// Each workload's inputs are a function of the seed alone: the same seed
// gives the same inputs, a different seed different ones.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) any{
		"sweep":     func(s uint64) any { return sweepPass(s, 3, 8) },
		"detailed":  func(s uint64) any { return detailedPass(s, 3, []int{2, 3}, []int{8}, 0) },
		"sample":    func(s uint64) any { return samplePoints(s, 3, 1792, 64) },
		"serve hot": func(s uint64) any { return hotSet(s, 64) },
		"serve requests": func(s uint64) any {
			g := newKeys(s, streamServe+1, hotSet(s, 64))
			var reqs []*request
			for i := 0; i < 200; i++ {
				reqs = append(reqs, g.next())
			}
			return reqs
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// Passes of one run never repeat inputs, so no cache can carry over.
func TestPassesDiffer(t *testing.T) {
	if reflect.DeepEqual(sweepPass(1, 0, 4), sweepPass(1, 1, 4)) {
		t.Error("sweep passes 0 and 1 are identical")
	}
	if reflect.DeepEqual(detailedPass(1, 0, []int{2}, []int{4}, 0), detailedPass(1, 1, []int{2}, []int{4}, 0)) {
		t.Error("detailed passes 0 and 1 are identical")
	}
}

func TestPerturbStaysValid(t *testing.T) {
	r := newRand(1, 1)
	for _, base := range sweepBases {
		for i := 0; i < 500; i++ {
			w := perturb(base, r)
			if err := w.Validate(); err != nil {
				t.Fatalf("perturb(%+v) = %+v: %v", base, w, err)
			}
			if w.Tau < 0.9*base.Tau || w.Tau > 1.1*base.Tau {
				t.Fatalf("tau %v outside ±10%% of %v", w.Tau, base.Tau)
			}
		}
	}
}

func TestRequestMix(t *testing.T) {
	r := newRand(1, 2)
	var n [4]int
	const draws = 20000
	for i := 0; i < draws; i++ {
		n[pickKind(r)]++
	}
	for k, want := range mixShare {
		if got := float64(n[k]) / draws; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], got, want)
		}
	}
}
