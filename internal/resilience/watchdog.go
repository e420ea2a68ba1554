package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// TimeoutError is the watchdog's typed verdict: op ran past its limit.
// It unwraps to context.DeadlineExceeded, so existing cancellation
// classification (errors.Is against the deadline sentinel) keeps working
// while callers that care can errors.As for the operation and limit.
type TimeoutError struct {
	// Op names the guarded operation.
	Op string
	// Limit is the budget that was exceeded.
	Limit time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("resilience: %s exceeded its %v watchdog budget", e.Op, e.Limit)
}

// Unwrap makes errors.Is(err, context.DeadlineExceeded) hold.
func (e *TimeoutError) Unwrap() error { return context.DeadlineExceeded }

// Watchdog runs op under a deadline of limit and converts a stuck or
// over-budget computation into a *TimeoutError. op receives a context
// that fires at the deadline and must honor it eventually (every solver
// loop in this repository checks its context periodically); the watchdog
// does not wait for a stuck op beyond the limit — it returns the typed
// timeout immediately and lets op unwind on its own when its context
// check next fires.
//
// limit <= 0 disables the watchdog: op runs with ctx unchanged. The
// campaign runner skips the watchdog and its closure when it has no
// point timeout, so only a caller passing a limit through unchecked
// reaches this branch.
func Watchdog(ctx context.Context, op string, limit time.Duration, fn func(context.Context) error) error {
	if limit <= 0 {
		return fn(ctx)
	}
	wctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn(wctx) }()
	select {
	case err := <-done:
		if err != nil && errors.Is(wctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			// The budget, not the caller, ended the run: type it.
			watchdogTimeouts.Inc()
			return fmt.Errorf("%w: %w", &TimeoutError{Op: op, Limit: limit}, err)
		}
		return err
	case <-wctx.Done():
		if ctx.Err() != nil {
			return ctx.Err() // caller cancellation, not a watchdog verdict
		}
		watchdogTimeouts.Inc()
		return &TimeoutError{Op: op, Limit: limit}
	}
}
