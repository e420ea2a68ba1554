package snoopmva

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva/internal/faultinject"
)

func TestSweepParallelMatchesSequential(t *testing.T) {
	// Every size is a cold solve, so one worker and GOMAXPROCS workers
	// give the same answers bit for bit.
	w := AppendixA(Sharing5)
	ns := []int{1, 2, 4, 8, 16, 32, 64, 100}
	seq, err := Sweep(context.Background(), Direct, WriteOnce(), w, ns, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(context.Background(), Direct, WriteOnce(), w, ns, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if seq[i] != par[i] {
			t.Errorf("N=%d: parallel %+v != sequential %+v", ns[i], par[i], seq[i])
		}
	}
}

func TestSweepParallelPropagatesErrors(t *testing.T) {
	if _, err := Sweep(context.Background(), Direct, WriteOnce(), AppendixA(Sharing5), []int{4, 0, 8}, 0); err == nil {
		t.Error("invalid N accepted")
	}
	empty, err := Sweep(context.Background(), Direct, WriteOnce(), AppendixA(Sharing5), nil, 0)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty sweep: %v, %v", empty, err)
	}
}

func TestSweepParallelStopsSchedulingAfterError(t *testing.T) {
	// An invalid size as the very first element fails immediately (GOMAXPROCS
	// workers may have dequeued a few more by then); the feeder must then stop
	// scheduling, so almost all of the remaining sizes are never solved.
	var entered atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		MVAEnter: func(int) { entered.Add(1) },
	})
	defer restore()

	ns := make([]int, 1000)
	ns[0] = 0 // invalid: fails without iterating
	for i := 1; i < len(ns); i++ {
		ns[i] = 4
	}
	if _, err := Sweep(context.Background(), Direct, WriteOnce(), AppendixA(Sharing5), ns, 0); err == nil {
		t.Fatal("invalid N accepted")
	}
	// Each scheduled size costs up to 3 solve attempts (the damping
	// ladder). Allow a generous in-flight window; without the feeder
	// short-circuit all 1000 sizes are solved (>= 1000 entries).
	if got := entered.Load(); got > 300 {
		t.Errorf("%d MVA solve attempts after first error; feeder did not short-circuit", got)
	}
}

func TestJoinSweepErrorsIdentifiesEveryFailure(t *testing.T) {
	// The aggregator must name every failed N and keep both causes
	// reachable through errors.Is — not just the lowest-index failure.
	ns := []int{2, 4, 8, 16}
	errs := []error{nil, ErrNoConvergence, nil, ErrDiverged}
	err := joinSweepErrors(ns, errs)
	if err == nil {
		t.Fatal("failures dropped")
	}
	if !errors.Is(err, ErrNoConvergence) || !errors.Is(err, ErrDiverged) {
		t.Fatalf("joined error lost a cause: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"N=4", "N=16"} {
		if !strings.Contains(msg, want) {
			t.Errorf("sweep error does not identify %s: %q", want, msg)
		}
	}
	for _, healthy := range []string{"N=2", "N=8"} {
		if strings.Contains(msg, healthy) {
			t.Errorf("sweep error blames healthy size %s: %q", healthy, msg)
		}
	}
	if joinSweepErrors(ns, make([]error, len(ns))) != nil {
		t.Error("all-nil errors produced a sweep error")
	}
}

func TestSweepParallelReportsConcurrentFailures(t *testing.T) {
	// Every size is invalid, so however many the feeder schedules before
	// short-circuiting, each scheduled failure must surface in the joined
	// error — at minimum the first, which is always scheduled.
	ns := []int{0, -1, -2}
	_, err := Sweep(context.Background(), Direct, WriteOnce(), AppendixA(Sharing5), ns, 0)
	if err == nil {
		t.Fatal("invalid sizes accepted")
	}
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("classification lost in aggregation: %v", err)
	}
	if !strings.Contains(err.Error(), "N=0") {
		t.Errorf("sweep error does not identify N=0: %q", err.Error())
	}
}

func TestSweepParallelContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var entered atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		MVAEnter: func(int) {
			if entered.Add(1) == 5 {
				cancel()
			}
		},
	})
	defer restore()

	ns := make([]int, 500)
	for i := range ns {
		ns[i] = 4
	}
	_, err := Sweep(ctx, Direct, WriteOnce(), AppendixA(Sharing5), ns, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled sweep: err = %v, want ErrCanceled", err)
	}
	// MVA solves re-enter up to 3 times per size (damping ladder), and up
	// to GOMAXPROCS sizes can be in flight at the cancel; well under the
	// 1500 entries an uncancelled sweep would log.
	if got := entered.Load(); got > 500 {
		t.Errorf("%d solve entries after cancel; feeder did not stop", got)
	}
}

func TestCompareParallelContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compare(ctx, Direct, Protocols(), AppendixA(Sharing5), 2000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled compare: err = %v, want ErrCanceled", err)
	}
}

func TestCompareParallelReportsEveryFailure(t *testing.T) {
	ps := []Protocol{WithMods(9), Illinois(), WithMods(8)}
	_, err := Compare(context.Background(), Direct, ps, AppendixA(Sharing5), 4)
	if err == nil {
		t.Fatal("invalid protocols accepted")
	}
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("classification lost: %v", err)
	}
	if n := strings.Count(err.Error(), "invalid modification"); n != 2 {
		t.Errorf("joined error mentions %d of 2 failures: %q", n, err.Error())
	}
}

func TestCompareParallelMatchesSequential(t *testing.T) {
	w := AppendixA(Sharing20)
	ps := Protocols()
	par, err := Compare(context.Background(), Direct, ps, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		seq, err := Solve(p, w, 10)
		if err != nil {
			t.Fatal(err)
		}
		if seq != par[i] {
			t.Errorf("%v: parallel %+v != sequential %+v", p, par[i], seq)
		}
	}
	if _, err := Compare(context.Background(), Direct, []Protocol{WithMods(9)}, w, 4); err == nil {
		t.Error("invalid protocol accepted")
	}
}

// gatedSolver is a Solver whose SolveWithContext is f; its other methods
// are never called by the code under test.
type gatedSolver struct {
	Solver
	f func(ctx context.Context, n int) (Result, error)
}

func (g gatedSolver) SolveWithContext(ctx context.Context, _ Protocol, _ Workload, _ Timing, n int, _ Options) (Result, error) {
	return g.f(ctx, n)
}

// TestSweepParallelFeederCancellationWithBlockedWorkers pins the feeder's
// cancellation path: with every worker parked inside a slow solve (one
// that does not return until released), the feeder is blocked on the
// unbuffered work channel. Cancelling the context must make the feeder
// stop scheduling immediately — via the select on the send — rather than
// handing the pending size to a worker after cancellation. The regression
// this guards: a bare `work <- idx` send parks the feeder with no
// ctx.Done() escape, so one extra solve always started after cancel.
func TestSweepParallelFeederCancellationWithBlockedWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	workers := runtime.GOMAXPROCS(0)
	ns := make([]int, workers+4) // more sizes than workers: the feeder must block on a send
	for i := range ns {
		ns[i] = i + 1
	}

	gate := make(chan struct{})
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		_, err := Sweep(ctx, gatedSolver{f: func(ctx context.Context, n int) (Result, error) {
			started.Add(1)
			<-gate // a slow solve that ignores ctx: the worst case for the feeder
			return Result{}, ctx.Err()
		}}, WriteOnce(), AppendixA(Sharing5), ns, 0)
		done <- err
	}()

	// Wait until every worker is parked inside a solve; the feeder is then
	// blocked trying to hand over the next size.
	deadline := time.After(10 * time.Second)
	for int(started.Load()) < workers {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d workers started a solve", started.Load(), workers)
		case <-time.After(time.Millisecond):
		}
	}

	cancel()
	// Give a regressed feeder the chance to (wrongly) deliver the pending
	// size once a worker frees up; with the fix it has already exited.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("sweep did not return after cancellation and gate release")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := int(started.Load()); got != workers {
		t.Fatalf("%d solves started, want exactly %d: the feeder scheduled new work after cancellation", got, workers)
	}
}

// TestSolveRaceStorm hammers the pooled solver scratch from many
// goroutines (run under -race) with points over three seeded random
// configurations, interleaved out of order and visited from a different
// starting point by each goroutine, so a pooled scratch keeps changing
// models: concurrent solves must not bleed state across solves through
// the pool, so every answer equals the sequential one bit for bit.
func TestSolveRaceStorm(t *testing.T) {
	type point struct {
		p Protocol
		w Workload
		n int
	}
	rng := rand.New(rand.NewSource(2027))
	protos := []Protocol{Illinois(), Berkeley(), WriteOnce(), Dragon()}
	configs := make([]point, 3)
	for i := range configs {
		configs[i] = point{p: protos[rng.Intn(len(protos))], w: randWorkload(t, rng)}
	}
	points := make([]point, 16)
	for i := range points {
		points[i] = configs[rng.Intn(len(configs))]
		points[i].n = 1 + rng.Intn(24)
	}

	ctx := context.Background()
	want := make([]Result, len(points))
	for i, pt := range points {
		r, err := SolveWithContext(ctx, pt.p, pt.w, Timing{}, pt.n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for k := range points {
					i := (k + w) % len(points) // each goroutine starts at its own point
					pt := points[i]
					got, err := SolveWithContext(ctx, pt.p, pt.w, Timing{}, pt.n, Options{})
					if err != nil {
						errs <- err
						return
					}
					if got != want[i] {
						errs <- errors.New("cross-solve state bleed: result diverged under concurrency")
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
