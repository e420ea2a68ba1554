package snoopmva

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepParallelContext solves the MVA for each system size in ns
// concurrently (the solves are independent, microsecond-scale
// computations — this matters for wide design-space scans from
// interactive tools). Results are returned in input order.
//
// Sizes below 1 are rejected before any solve starts, each named in the
// returned error. Otherwise the first failure stops further sizes from
// being scheduled, but sizes already in flight run to completion and
// *every* error is reported: the returned error joins the per-size
// failures (each identified by its N), so errors.Is classification sees
// all of them. Cancellation of ctx stops the sweep the same way and
// surfaces as ErrCanceled.
func SweepParallelContext(ctx context.Context, p Protocol, w Workload, ns []int) (out []Result, err error) {
	defer guard(&err)
	return sweepParallel(ctx, ns, func(ctx context.Context, n int) (Result, error) {
		return SolveContext(ctx, p, w, n)
	})
}

// sweepParallel is the worker-pool core shared by SweepParallelContext and
// CachedSolver.SweepParallelContext: it rejects invalid sizes up front,
// fans the rest out over a bounded pool of the given solve function, stops
// scheduling on the first failure (or cancellation) while letting
// in-flight sizes finish, and aggregates every error.
func sweepParallel(ctx context.Context, ns []int, solve func(ctx context.Context, n int) (Result, error)) ([]Result, error) {
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
	forEachIndex(len(ns), 0, func() bool { return failed.Load() || ctx.Err() != nil }, func(idx int) {
		results[idx], errs[idx] = solve(ctx, ns[idx])
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

// SweepParallel is SweepParallelContext without cancellation.
func SweepParallel(p Protocol, w Workload, ns []int) ([]Result, error) {
	return SweepParallelContext(context.Background(), p, w, ns)
}

// CompareParallelContext solves several protocols concurrently at the
// same workload and system size, returned in input order. All protocols
// are attempted; the returned error joins every per-protocol failure.
func CompareParallelContext(ctx context.Context, ps []Protocol, w Workload, n int) (out []Result, err error) {
	defer guard(&err)
	results := make([]Result, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = SolveContext(ctx, ps[i], w, n)
		}(i)
	}
	wg.Wait()
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

// CompareParallel is CompareParallelContext without cancellation.
func CompareParallel(ps []Protocol, w Workload, n int) ([]Result, error) {
	return CompareParallelContext(context.Background(), ps, w, n)
}
