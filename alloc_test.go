// Allocation pins are meaningless under the race detector (its
// instrumentation allocates), so this file is excluded from -race runs;
// the plain CI test job keeps the gate.

//go:build !race

package snoopmva

import (
	"context"
	"testing"
)

// TestCachedSolveHitPathIsAllocationFree pins the tentpole: a resident
// cached solve — key encode, cache probe, result return — performs zero
// heap allocations, called on the concrete type and through the Solver
// interface alike.
func TestCachedSolveHitPathIsAllocationFree(t *testing.T) {
	c := NewCachedSolver(0)
	p, w := Illinois(), AppendixA(Sharing5)
	wo := WriteOnce()
	if _, err := c.Solve(p, w, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(wo, w, 16); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var s Solver = c
	for name, solve := range map[string]func() (Result, error){
		"*CachedSolver": func() (Result, error) { return c.SolveWithContext(ctx, p, w, Timing{}, 8, Options{}) },
		"Solver":        func() (Result, error) { return s.SolveWithContext(ctx, p, w, Timing{}, 8, Options{}) },
		"Solve":         func() (Result, error) { return c.Solve(wo, w, 16) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := solve(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: cache hit allocates %v/op, want 0", name, allocs)
		}
	}
}

// TestSolveIsAllocationFree pins the cold MVA solve — model build, the
// accelerated fixed-point iterate and result assembly — at zero heap
// allocations; the //snoop:hotpath budgets on the mva iterate rest on it.
func TestSolveIsAllocationFree(t *testing.T) {
	p, w := WriteOnce(), AppendixA(Sharing5)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := Solve(p, w, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Solve allocates %v/op, want 0", allocs)
	}
}

// TestSolveBestMVAOnlyIsAllocationFree pins an MVA-only SolveBest ladder
// at zero heap allocations: the answer record holds no pointer, so
// returning it by value copies nothing to the heap, and the MVA rung is
// itself allocation-free (TestSolveIsAllocationFree).
func TestSolveBestMVAOnlyIsAllocationFree(t *testing.T) {
	p, w := WriteOnce(), AppendixA(Sharing5)
	b := Budget{MaxStates: -1, SimCycles: -1}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := SolveBest(ctx, p, w, 16, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MVA-only SolveBest allocates %v/op, want 0", allocs)
	}
}

// TestCachedSolveBestHitAllocationBound pins a resident cached SolveBest
// at one allocation: the cache hands back its stored record by value,
// with no per-hit copy of per-model detail.
func TestCachedSolveBestHitAllocationBound(t *testing.T) {
	c := NewCachedSolver(0)
	p, w := WriteOnce(), AppendixA(Sharing5)
	b := Budget{MaxStates: -1, SimCycles: -1}
	ctx := context.Background()
	if _, err := c.SolveBest(ctx, p, w, 16, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.SolveBest(ctx, p, w, 16, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cached SolveBest hit allocates %v/op, want at most 1", allocs)
	}
}

// TestCampaignHotPathAllocationBound pins RunCampaign's per-point cost
// on the MVA-only path at zero allocations: a campaign without a journal
// or point timeout allocates only its fixed set-up (result and pending
// slices, breaker, worker pool), so a 1792-point campaign allocates
// exactly as often as a 448-point one, and both stay within
// campaignSetupAllocs (23 measured). The least of several AllocsPerRun
// windows is taken, so a GC that empties the solver's scratch pool
// mid-window cannot flake it.
func TestCampaignHotPathAllocationBound(t *testing.T) {
	const campaignSetupAllocs = 32
	curves := mvaCurves()
	allocs := func(points []CampaignPoint) float64 {
		spec := CampaignSpec{Points: points, Workers: 2}
		least := -1.0
		for i := 0; i < 5; i++ {
			a := testing.AllocsPerRun(20, func() {
				if _, err := RunCampaign(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			})
			if least < 0 || a < least {
				least = a
			}
		}
		return least
	}
	small := allocs(curves)
	large := allocs(append(append(append(curves[:len(curves):len(curves)], curves...), curves...), curves...))
	if small > campaignSetupAllocs {
		t.Errorf("%d-point MVA-only campaign allocates %v/op, want at most %d", len(curves), small, campaignSetupAllocs)
	}
	if large != small {
		t.Errorf("%d-point MVA-only campaign allocates %v/op, %d-point one %v/op: the runner allocates per point",
			4*len(curves), large, len(curves), small)
	}
}
