// Package resilience supplies the fault-handling building blocks of the
// campaign runner: retry with exponential backoff and deterministic
// (seeded) jitter, a class-based error taxonomy hook, a count-based
// per-key circuit breaker, and a watchdog that converts a stuck
// computation into a typed timeout.
//
// The package is deliberately below the public API in the import graph
// (it cannot see the root sentinels), so error classification is supplied
// by the caller as a Classifier; the root package wires the PR-1
// sentinels into one.
package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Class partitions errors by the reaction they warrant.
type Class int

const (
	// Retryable marks a transient failure worth another attempt.
	Retryable Class = iota
	// Permanent marks a failure no retry can fix (invalid input, a model
	// that mathematically cannot converge, a state space that will explode
	// identically every time).
	Permanent
	// Aborted marks caller cancellation: stop immediately, retrying would
	// defy the caller.
	Aborted
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Retryable:
		return "retryable"
	case Permanent:
		return "permanent"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classifier maps an error onto a Class. A nil error must never be
// passed. Implementations are supplied by the caller so this package
// stays independent of any particular error taxonomy.
type Classifier func(error) Class

// RetryPolicy tunes Retry. The zero value means one attempt (no retries)
// with the default backoff shape, so an unconfigured policy is safe.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of attempts (first try
	// included); values < 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (0 means 10ms);
	// each later delay doubles.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 means 2s).
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over ±Jitter fraction of its
	// nominal value (0.2 → ±20%). Values outside [0,1) are clamped.
	Jitter float64
	// Seed drives the jitter stream. Equal seeds produce identical delay
	// sequences, which keeps retried runs reproducible.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter >= 1 {
		p.Jitter = 0.999
	}
	return p
}

// Delays returns the backoff sequence the policy would sleep between
// attempts (length MaxAttempts-1). The sequence is a pure function of the
// policy, jitter included, which is what makes retried campaigns
// deterministic and lets tests assert on it.
func (p RetryPolicy) Delays() []time.Duration {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(int64(p.Seed)))
	out := make([]time.Duration, 0, p.MaxAttempts-1)
	nominal := float64(p.BaseDelay)
	for i := 1; i < p.MaxAttempts; i++ {
		d := nominal
		if lim := float64(p.MaxDelay); d > lim {
			d = lim
		}
		// Uniform over [d·(1-Jitter), d·(1+Jitter)], from the seeded stream.
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
		out = append(out, time.Duration(d))
		nominal *= 2
	}
	return out
}

// Retry runs op until it succeeds, fails permanently, is aborted, or the
// attempt budget is exhausted. It returns the number of attempts made and
// op's final error (nil on success). Backoff sleeps honor ctx: a fired
// context ends the retry loop immediately with ctx's error.
//
// classify decides each error's Class; a nil classify treats every error
// as Retryable. Attempt numbers passed to op count from 1.
//
// The jitter schedule is built at the first retry that sleeps, never on a
// first-attempt success: seeding its stream costs more than a microsecond
// solve. It is still p.Delays(), so every retry sleeps on the same
// schedule whether or not an earlier call built it.
func Retry(ctx context.Context, p RetryPolicy, classify Classifier, op func(ctx context.Context, attempt int) error) (attempts int, err error) {
	return retry(ctx, p, classify, op, sleep)
}

// retry is Retry with the backoff sleep supplied, so tests can observe
// the schedule without waiting it out.
func retry(ctx context.Context, p RetryPolicy, classify Classifier, op func(ctx context.Context, attempt int) error,
	sleep func(ctx context.Context, d time.Duration) error) (attempts int, err error) {
	p = p.withDefaults()
	var delays []time.Duration
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return attempts, cerr
		}
		attempts = attempt
		retryAttempts.Inc()
		if attempt > 1 {
			retryRetries.Inc()
		}
		err = op(ctx, attempt)
		if err == nil {
			return attempts, nil
		}
		class := Retryable
		if classify != nil {
			class = classify(err)
		}
		if class != Retryable || attempt == p.MaxAttempts {
			return attempts, err
		}
		if delays == nil {
			delays = p.Delays()
		}
		if serr := sleep(ctx, delays[attempt-1]); serr != nil {
			return attempts, serr
		}
	}
	return attempts, err
}

// sleep waits for d or until ctx fires, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
