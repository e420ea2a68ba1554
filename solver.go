package snoopmva

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Solver is the one MVA solve surface. Direct (the package-level solvers)
// and *CachedSolver (the same solvers behind a memoization cache)
// implement it, so a caller chooses its solver once and every point,
// sweep and SolveBest ladder goes through that choice; the sweep
// and the protocol comparison are free functions over a Solver. Every
// answer is bitwise the same whichever implementation gives it.
type Solver interface {
	SolveWithContext(ctx context.Context, p Protocol, w Workload, t Timing, n int, opts Options) (Result, error)
	SolveBest(ctx context.Context, p Protocol, w Workload, n int, b Budget) (Result, error)
}

// Direct is the uncached Solver: each method is the package-level
// function of the same name.
var Direct Solver = direct{}

type direct struct{}

func (direct) SolveWithContext(ctx context.Context, p Protocol, w Workload, t Timing, n int, opts Options) (Result, error) {
	return SolveWithContext(ctx, p, w, t, n, opts)
}

func (direct) SolveBest(ctx context.Context, p Protocol, w Workload, n int, b Budget) (Result, error) {
	return SolveBest(ctx, p, w, n, b)
}

// Sweep solves the MVA through s for each system size in ns on workers
// goroutines (GOMAXPROCS when workers < 1; the solves are independent,
// microsecond-scale computations, which matters for wide design-space
// scans from interactive tools). Every size is a cold solve, so the
// results are bitwise identical to per-size Solve calls whichever Solver
// and worker count run them, and are returned in input order.
//
// Sizes below 1 are rejected before any solve starts, each named in the
// returned error. Otherwise the first failure stops further sizes from
// being scheduled, but sizes already in flight run to completion and
// *every* error is reported: the returned error joins the per-size
// failures (each identified by its N), so errors.Is classification sees
// all of them. Cancellation of ctx stops the sweep the same way and
// surfaces as ErrCanceled.
func Sweep(ctx context.Context, s Solver, p Protocol, w Workload, ns []int, workers int) (out []Result, err error) {
	defer guard(&err)
	errs := make([]error, len(ns))
	invalid := false
	for idx, n := range ns {
		if n < 1 {
			errs[idx] = fmt.Errorf("snoopmva: system size %d < 1: %w", n, ErrInvalidInput)
			invalid = true
		}
	}
	if invalid {
		return nil, joinSweepErrors(ns, errs)
	}
	results := make([]Result, len(ns))
	var failed atomic.Bool
	forEachIndex(len(ns), workers, func() bool { return failed.Load() || ctx.Err() != nil }, func(idx int) {
		results[idx], errs[idx] = s.SolveWithContext(ctx, p, w, Timing{}, ns[idx], Options{})
		if errs[idx] != nil {
			failed.Store(true)
		}
	})
	joined := joinSweepErrors(ns, errs)
	// Cancellation may stop scheduling before any in-flight solve observes
	// it, leaving every scheduled solve error-free; the partial sweep must
	// still fail, with the cancellation sentinel leading.
	if cerr := ctx.Err(); cerr != nil {
		if joined != nil {
			return nil, fmt.Errorf("snoopmva: sweep interrupted: %w (earlier failures: %v)", classify(cerr), joined)
		}
		return nil, fmt.Errorf("snoopmva: sweep interrupted: %w", classify(cerr))
	}
	if joined != nil {
		return nil, joined
	}
	return results, nil
}

// Compare solves several protocols through s concurrently at the same
// workload and system size, returned in input order. Every protocol is
// attempted; the returned error joins the per-protocol failures, each
// identified by its protocol, so errors.Is sees every cause.
func Compare(ctx context.Context, s Solver, ps []Protocol, w Workload, n int) (out []Result, err error) {
	defer guard(&err)
	results := make([]Result, len(ps))
	errs := make([]error, len(ps))
	forEachIndex(len(ps), 0, func() bool { return false }, func(i int) {
		results[i], errs[i] = s.SolveWithContext(ctx, ps[i], w, Timing{}, n, Options{})
	})
	var joined []error
	for i, perr := range errs {
		if perr != nil {
			joined = append(joined, fmt.Errorf("snoopmva: %v: %w", ps[i], perr))
		}
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return results, nil
}

// forEachIndex calls f(i) for every i in [0, n) on a fixed pool of
// goroutines (workers of them, GOMAXPROCS when workers < 1, never more
// than n) and returns once every call has returned. Each goroutine claims
// the next index from a shared atomic cursor, so indices start in
// ascending order, and with one worker they run in that order. A
// goroutine checks stop before each claim: once stop reports true no new
// call starts, while calls already running finish.
func forEachIndex(n, workers int, stop func() bool, f func(i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// joinSweepErrors aggregates the per-index failures of a sweep into one
// error that names every failed N and unwraps (via errors.Join) to each
// underlying cause.
func joinSweepErrors(ns []int, errs []error) error {
	var joined []error
	for idx, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("snoopmva: sweep at N=%d: %w", ns[idx], err))
		}
	}
	if len(joined) == 0 {
		return nil
	}
	return errors.Join(joined...)
}
