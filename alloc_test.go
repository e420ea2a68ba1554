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
