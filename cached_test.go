package snoopmva

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva/internal/faultinject"
)

func TestCachedSolveBitwiseMatchesUncached(t *testing.T) {
	cs := NewCachedSolver(0)
	w := AppendixA(Sharing5)
	for _, p := range []Protocol{WriteOnce(), Illinois(), Dragon()} {
		for _, n := range []int{1, 4, 10, 100} {
			direct, err := Solve(p, w, n)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := cs.Solve(p, w, n)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := cs.Solve(p, w, n)
			if err != nil {
				t.Fatal(err)
			}
			// Result is a plain value struct of floats and ints; the cached
			// value IS the computed value, so equality must be exact
			// (struct comparison is deliberate here).
			if cold != direct || hit != direct {
				t.Errorf("%v N=%d: cached result differs: direct %+v, cold %+v, hit %+v",
					p, n, direct, cold, hit)
			}
		}
	}
	s := cs.Stats()
	if s.Misses != 12 || s.Hits != 12 {
		t.Errorf("stats = %+v, want 12 misses + 12 hits", s)
	}
}

func TestCachedSolverKeyDiscrimination(t *testing.T) {
	cs := NewCachedSolver(0)
	w := AppendixA(Sharing5)

	// Same protocol constructed two ways must share an entry.
	if _, err := cs.Solve(Illinois(), w, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Solve(WithMods(1, 2, 3), w, 8); err != nil {
		t.Fatal(err)
	}
	if s := cs.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("preset vs WithMods did not share an entry: %+v", s)
	}

	// The zero Timing means the paper defaults: must share with
	// DefaultTiming().
	if _, err := cs.SolveWithContext(context.Background(), Illinois(), w, DefaultTiming(), 8, Options{}); err != nil {
		t.Fatal(err)
	}
	if s := cs.Stats(); s.Misses != 1 || s.Hits != 2 {
		t.Errorf("zero Timing vs DefaultTiming did not share an entry: %+v", s)
	}

	// Any changed input must be a distinct entry.
	w2 := w
	w2.Tau += 0.5
	if _, err := cs.Solve(Illinois(), w2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Solve(Illinois(), w, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.SolveWithContext(context.Background(), Illinois(), w, Timing{}, 8, Options{SplitTransactionBus: true}); err != nil {
		t.Fatal(err)
	}
	if s := cs.Stats(); s.Misses != 4 {
		t.Errorf("changed inputs did not miss: %+v", s)
	}
}

func TestCachedSolverStorm(t *testing.T) {
	// Acceptance criterion: a 64-goroutine identical-key storm performs
	// exactly one underlying solve, asserted via the coalesce counters and
	// an MVAEnter fault-injection probe counting real solver entries.
	const storm = 64
	cs := NewCachedSolver(0)
	w := AppendixA(Sharing20)

	var solves atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		MVAEnter: func(int) { solves.Add(1) },
	})
	defer restore()

	var ready, done sync.WaitGroup
	ready.Add(storm)
	done.Add(storm)
	release := make(chan struct{})
	results := make([]Result, storm)
	errs := make([]error, storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			defer done.Done()
			ready.Done()
			<-release
			results[i], errs[i] = cs.Solve(Dragon(), w, 16)
		}(i)
	}
	ready.Wait()
	close(release)
	done.Wait()

	if n := solves.Load(); n != 1 {
		t.Errorf("storm entered the MVA solver %d times, want exactly 1", n)
	}
	for i := 1; i < storm; i++ {
		if errs[i] != nil || results[i] != results[0] {
			t.Fatalf("goroutine %d: %+v, %v", i, results[i], errs[i])
		}
	}
	s := cs.Stats()
	if s.Misses != 1 {
		t.Errorf("stats.Misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != storm-1 {
		t.Errorf("hits %d + coalesced %d should account for the other %d callers",
			s.Hits, s.Coalesced, storm-1)
	}
}

func TestCachedReSolveSpeedup(t *testing.T) {
	// Acceptance criterion: a cached re-solve is at least 100× faster than
	// the cold solve. Measured on SolveBest with a GTPN stage — the
	// regime the cache exists for (the paper's expensive comparator versus
	// a map lookup). Each side is timed over several iterations to keep
	// scheduler noise out of the ratio.
	cs := NewCachedSolver(0)
	w := AppendixA(Sharing5)
	b := Budget{SimCycles: -1} // GTPN with default state budget, no simulator

	start := time.Now()
	cold, err := cs.SolveBest(context.Background(), WriteOnce(), w, 4, b)
	coldTime := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Method != MethodGTPN {
		t.Fatalf("cold solve used %v, want GTPN", cold.Method)
	}

	const reps = 100
	start = time.Now()
	for i := 0; i < reps; i++ {
		hit, err := cs.SolveBest(context.Background(), WriteOnce(), w, 4, b)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Speedup != cold.Speedup || hit.Method != cold.Method {
			t.Fatalf("cache hit returned a different result: %+v vs %+v", hit, cold)
		}
	}
	hitTime := time.Since(start) / reps

	if hitTime <= 0 {
		hitTime = 1 // sub-resolution hits trivially satisfy the bound
	}
	ratio := float64(coldTime) / float64(hitTime)
	t.Logf("cold %v, hit %v, ratio %.0f×", coldTime, hitTime, ratio)
	if ratio < 100 {
		t.Errorf("cached re-solve only %.1f× faster than cold (cold %v, hit %v), want ≥ 100×",
			ratio, coldTime, hitTime)
	}
	if s := cs.Stats(); s.Misses != 1 || s.Hits != reps {
		t.Errorf("stats = %+v", s)
	}
}

// TestCachedResultsArePrivateCopies guards the cache's return-by-value:
// every caller gets its own copy of the stored Result. Observed is the
// record's one reference, so owned copies it; a caller that edits the
// workload a hit handed out must not change what the next hit returns.
func TestCachedResultsArePrivateCopies(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			if path != "Result.Observed" {
				t.Errorf("%s is a %s that owned does not copy: a cache hit would share it with every caller", path, typ.Kind())
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	check("Result", reflect.TypeOf(Result{}))

	cs := NewCachedSolver(0)
	w := AppendixA(Sharing5)
	b := Budget{MaxStates: -1, SimCycles: 5000, Seed: 3}
	first, err := cs.SolveBest(context.Background(), Illinois(), w, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	if first.Method != MethodSimulation || first.Observed == nil {
		t.Fatalf("want a simulator answer with an observed workload, got %+v", first)
	}
	want := *first.Observed
	first.Observed.Tau = -1
	hit, err := cs.SolveBest(context.Background(), Illinois(), w, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	if *hit.Observed != want {
		t.Fatalf("editing the first answer's Observed changed the next hit: Tau %v, want %v", hit.Observed.Tau, want.Tau)
	}
	hit.Observed.Tau = -2
	peek, ok := cs.PeekSolveBest(Illinois(), w, 4, b)
	if !ok || *peek.Observed != want {
		t.Fatalf("editing a hit's Observed changed the next peek: %+v", peek.Observed)
	}
	if s := cs.Stats(); s.Misses != 1 {
		t.Errorf("stats = %+v, want one miss", s)
	}
}

func TestCachedSolverErrorsNotCachedAndClassified(t *testing.T) {
	cs := NewCachedSolver(0)
	bad := AppendixA(Sharing5)
	bad.PPrivate = 2 // invalid partition
	for i := 0; i < 2; i++ {
		if _, err := cs.Solve(WriteOnce(), bad, 4); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("attempt %d: err = %v, want ErrInvalidInput", i, err)
		}
	}
	if s := cs.Stats(); s.Entries != 0 || s.Misses != 2 {
		t.Errorf("failed solves were cached: %+v", s)
	}

	// Cancellation surfaces as ErrCanceled and is not cached either. The
	// solver polls ctx every few dozen iterations, so this needs a
	// configuration that iterates long enough to observe it — Sharing20
	// near saturation runs ~1000 iterations.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	heavy := AppendixA(Sharing20)
	if _, err := cs.SolveWithContext(ctx, WriteOnce(), heavy, Timing{}, 100, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled solve: %v", err)
	}
	if got, err := cs.SolveWithContext(context.Background(), WriteOnce(), heavy, Timing{}, 100, Options{}); err != nil || got.N != 100 {
		t.Fatalf("solve after canceled flight: %+v, %v", got, err)
	}
}

// TestCachedSweepsMatchColdSolves: every sweep point is bitwise a per-size
// cold Solve, whichever Solver runs the sweep and on however many workers.
func TestCachedSweepsMatchColdSolves(t *testing.T) {
	cs := NewCachedSolver(0)
	w := AppendixA(Sharing20)
	ns := []int{1, 2, 4, 8, 16, 32}
	for _, s := range []Solver{Direct, cs} {
		for _, workers := range []int{1, 0} {
			rs, err := Sweep(context.Background(), s, Illinois(), w, ns, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range ns {
				cold, err := Solve(Illinois(), w, n)
				if err != nil {
					t.Fatal(err)
				}
				if rs[i] != cold {
					t.Errorf("%T, %d workers, N=%d: sweep %+v != cold solve %+v", s, workers, n, rs[i], cold)
				}
			}
		}
	}
	// The cache's second sweep must be all hits.
	if st := cs.Stats(); st.Misses != uint64(len(ns)) {
		t.Errorf("two cached sweeps over the same sizes ran %d solves, want %d", st.Misses, len(ns))
	}
}

func TestCachedCompareJoinsErrors(t *testing.T) {
	cs := NewCachedSolver(0)
	w := AppendixA(Sharing5)
	good, err := Compare(context.Background(), cs, []Protocol{WriteOnce(), Illinois()}, w, 8)
	if err != nil || len(good) != 2 {
		t.Fatalf("Compare: %v, %v", good, err)
	}
	_, err = Compare(context.Background(), cs, []Protocol{WriteOnce(), WithMods(9)}, w, 8)
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("Compare with invalid protocol: %v", err)
	}
}

func TestCampaignWithCacheMatchesWithout(t *testing.T) {
	w := AppendixA(Sharing5)
	var points []CampaignPoint
	for _, p := range []Protocol{WriteOnce(), Illinois()} {
		for _, n := range []int{1, 2, 4, 8} {
			points = append(points, CampaignPoint{
				Protocol: p, Workload: w, N: n,
				Budget: Budget{MaxStates: -1, SimCycles: -1},
			})
		}
	}
	plain, err := RunCampaign(context.Background(), CampaignSpec{Points: points, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedSolver(0)
	cached, err := RunCampaign(context.Background(), CampaignSpec{Points: points, Workers: 2, Cache: cs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		a, b := plain.Results[i], cached.Results[i]
		if a.Speedup != b.Speedup || a.R != b.R || a.Method != b.Method {
			t.Errorf("point %d: cached campaign differs: %+v vs %+v", i, b, a)
		}
	}
	if s := cs.Stats(); s.Misses != uint64(len(points)) {
		t.Errorf("first cached campaign: %+v, want %d misses", s, len(points))
	}

	// A re-run of the same grid through the same cache (fresh journal so
	// resume semantics are out of the picture) must be pure hits.
	journal := filepath.Join(t.TempDir(), "c.jsonl")
	rerun, err := RunCampaign(context.Background(), CampaignSpec{
		Points: points, Workers: 2, Cache: cs, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Computed != len(points) {
		t.Fatalf("rerun computed %d points, want %d", rerun.Computed, len(points))
	}
	if s := cs.Stats(); s.Misses != uint64(len(points)) || s.Hits < uint64(len(points)) {
		t.Errorf("cached rerun was not served from the cache: %+v", s)
	}
}
