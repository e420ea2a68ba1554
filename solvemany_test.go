package snoopmva

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// randBatch builds a mixed SolveManyContext batch over seeded random
// workloads: several configurations interleaved out of order, so the
// grouped batch path has to reassemble runs and map results back to
// input order.
func randBatch(t *testing.T, rng *rand.Rand, points int) []SolveInput {
	t.Helper()
	protos := []Protocol{Illinois(), Berkeley(), WriteOnce(), Dragon()}
	configs := make([]SolveInput, 3)
	for i := range configs {
		configs[i] = SolveInput{
			Protocol: protos[rng.Intn(len(protos))],
			Workload: randWorkload(t, rng),
		}
	}
	batch := make([]SolveInput, points)
	for i := range batch {
		in := configs[rng.Intn(len(configs))]
		in.N = 1 + rng.Intn(24)
		batch[i] = in
	}
	return batch
}

// TestSolveManyMatchesSequentialSolve is the batched-API contract: the
// grouped, scratch-sharing batch solve returns bitwise-identical results
// to a sequential loop of independent SolveWith calls.
func TestSolveManyMatchesSequentialSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	for round := 0; round < 5; round++ {
		batch := randBatch(t, rng, 32)
		got, err := SolveManyContext(context.Background(), batch)
		if err != nil {
			t.Fatalf("round %d: SolveManyContext: %v", round, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("round %d: got %d results for %d inputs", round, len(got), len(batch))
		}
		for i, in := range batch {
			want, err := SolveWithContext(context.Background(), in.Protocol, in.Workload, in.Timing, in.N, in.Options)
			if err != nil {
				t.Fatalf("round %d: sequential solve %d: %v", round, i, err)
			}
			if got[i] != want {
				t.Fatalf("round %d point %d (N=%d): batch %+v != sequential %+v", round, i, in.N, got[i], want)
			}
		}
	}
}

func TestSolveManyFailFast(t *testing.T) {
	batch := []SolveInput{
		{Protocol: Illinois(), Workload: AppendixA(Sharing5), N: 4},
		{Protocol: Illinois(), Workload: AppendixA(Sharing5), N: 0}, // invalid size
	}
	if _, err := SolveManyContext(context.Background(), batch); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("SolveManyContext with invalid size = %v, want ErrInvalidInput", err)
	}

	bad := Workload{} // fails validation inside the solver
	batch[1] = SolveInput{Protocol: Illinois(), Workload: bad, N: 4}
	if _, err := SolveManyContext(context.Background(), batch); err == nil {
		t.Fatal("SolveManyContext with invalid workload succeeded")
	}
}

func TestSolveManyEmptyBatch(t *testing.T) {
	out, err := SolveManyContext(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("SolveManyContext(nil) = %v, %v", out, err)
	}
}

// TestSolveManyRaceStorm hammers the pooled solver scratch from many
// goroutines (run under -race): concurrent batches must not bleed state
// across solves through the pool.
func TestSolveManyRaceStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	batch := randBatch(t, rng, 16)
	want, err := SolveManyContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := SolveManyContext(context.Background(), batch)
				if err != nil {
					errs <- err
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs <- errors.New("cross-solve state bleed: batch result diverged under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachedSolveManyMatchesAndCaches checks the cached batch: a cold
// batch equals the uncached batch bitwise, a repeat is served entirely
// from the cache, and single-point lookups hit the entries the batch
// published.
func TestCachedSolveManyMatchesAndCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(3011))
	batch := randBatch(t, rng, 24)
	want, err := SolveManyContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCachedSolver(0)
	got, err := c.SolveManyContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: cached batch %+v != uncached %+v", i, got[i], want[i])
		}
	}

	h0 := c.Stats().Hits
	again, err := c.SolveManyContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("point %d: warm cached batch diverged", i)
		}
	}
	if hits := c.Stats().Hits - h0; hits != uint64(len(batch)) {
		t.Fatalf("warm batch scored %d hits, want %d", hits, len(batch))
	}

	in := batch[0]
	r, err := c.SolveWithContext(context.Background(), in.Protocol, in.Workload, in.Timing, in.N, in.Options)
	if err != nil {
		t.Fatal(err)
	}
	if r != want[0] {
		t.Fatal("single-point solve missed the entry the batch published")
	}
}

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
