// The batch alloc pin is meaningless under the race detector (its
// instrumentation allocates), so this file is excluded from -race runs;
// the plain CI test job keeps the gate.

//go:build !race

package snoopmva

import (
	"context"
	"runtime"
	"testing"
)

// TestCachedSolveManyAllocationBound pins a warm 16-point batch through
// the cached SolveManyContext: pooled key probes all hit, so the only
// allocation is the result slice handed back to the caller. Counts are
// read from MemStats and the least of several windows is taken, so a
// background allocation or a GC that empties the key pools mid-window
// cannot flake it.
func TestCachedSolveManyAllocationBound(t *testing.T) {
	const points = 16
	c := NewCachedSolver(0)
	p, w := WriteOnce(), AppendixA(Sharing5)
	inputs := make([]SolveInput, points)
	for i := range inputs {
		inputs[i] = SolveInput{Protocol: p, Workload: w, N: i + 1}
	}
	ctx := context.Background()
	batch := func() {
		if _, err := c.SolveManyContext(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	}
	batch() // populate the cache

	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs, bytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		batch() // refill the pools a GC may have emptied
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			batch()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if allocs != 1 {
		t.Fatalf("warm %d-point cached batch allocates %d/op, want exactly 1 (the result slice)", points, allocs)
	}
	// The result slice is points × Result; 1152 B at the time of writing.
	const limit = 1152 * 12 / 10
	if bytes > limit {
		t.Fatalf("warm %d-point cached batch allocates %d B/op, want at most %d", points, bytes, limit)
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
