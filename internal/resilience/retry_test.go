package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// classifyMarked treats errors wrapping errPermanent as Permanent and
// everything else as Retryable.
var errPermanent = errors.New("permanent")

func classifyMarked(err error) Class {
	if errors.Is(err, errPermanent) {
		return Permanent
	}
	if errors.Is(err, context.Canceled) {
		return Aborted
	}
	return Retryable
}

func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Seed:        42,
	}
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), fastPolicy(5), classifyMarked,
		func(ctx context.Context, attempt int) error {
			calls++
			if attempt != calls {
				t.Fatalf("attempt numbering: got %d on call %d", attempt, calls)
			}
			if calls < 3 {
				return errBoom
			}
			return nil
		})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("got attempts=%d calls=%d err=%v, want 3/3/nil", attempts, calls, err)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), fastPolicy(5), classifyMarked,
		func(context.Context, int) error { calls++; return errPermanent })
	if calls != 1 || attempts != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, errPermanent) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), fastPolicy(4), classifyMarked,
		func(context.Context, int) error { calls++; return errBoom })
	if calls != 4 || attempts != 4 {
		t.Fatalf("got %d calls, want 4", calls)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("final error lost: %v", err)
	}
}

func TestRetryAbortsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	attempts, err := Retry(ctx, fastPolicy(10), classifyMarked,
		func(context.Context, int) error {
			calls++
			cancel() // fires during the first attempt
			return errBoom
		})
	// The backoff sleep (or the pre-attempt check) must notice the fired
	// context instead of burning the rest of the budget.
	if calls != 1 || attempts != 1 {
		t.Fatalf("canceled retry kept going: %d calls", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryAbortedClassStopsImmediately(t *testing.T) {
	calls := 0
	_, err := Retry(context.Background(), fastPolicy(10), classifyMarked,
		func(context.Context, int) error {
			calls++
			return context.Canceled
		})
	if calls != 1 {
		t.Fatalf("aborted-class error retried: %d calls", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelaysAreDeterministicPerSeed(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond,
		Jitter: 0.3, Seed: 7}
	a, b := p.Delays(), p.Delays()
	if len(a) != 5 {
		t.Fatalf("got %d delays, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	p.Seed = 8
	c := p.Delays()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
	// Jittered delays stay within ±30% of the nominal exponential curve,
	// capped at MaxDelay.
	nominal := float64(time.Millisecond)
	for i, d := range a {
		n := nominal
		if lim := float64(p.MaxDelay); n > lim {
			n = lim
		}
		if float64(d) < n*0.69 || float64(d) > n*1.31 {
			t.Fatalf("delay %d = %v outside jitter band of %v", i, d, time.Duration(n))
		}
		nominal *= 2
	}
}

func TestRetrySleepsOnTheDelaySchedule(t *testing.T) {
	// The schedule is built lazily, at the first retry; every sleep must
	// still be exactly the policy's pure Delays() sequence.
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
		Jitter: 0.4, Seed: 11}
	want := p.Delays()
	var slept []time.Duration
	record := func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	attempts, err := retry(context.Background(), p, nil,
		func(context.Context, int) error { return errBoom }, record)
	if attempts != p.MaxAttempts || !errors.Is(err, errBoom) {
		t.Fatalf("got attempts=%d err=%v, want %d and errBoom", attempts, err, p.MaxAttempts)
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %d times, want %d", len(slept), len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep before attempt %d = %v, want Delays()[%d] = %v", i+2, slept[i], i, want[i])
		}
	}
}

func TestRetryFirstAttemptSuccessDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	p := RetryPolicy{MaxAttempts: 1, Jitter: 0.2, Seed: 3}
	op := func(context.Context, int) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Retry(ctx, p, classifyMarked, op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("first-attempt success allocated %v times per call, want 0", allocs)
	}
}

func TestZeroPolicyMeansSingleAttempt(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), RetryPolicy{}, nil,
		func(context.Context, int) error { calls++; return errBoom })
	if calls != 1 || attempts != 1 || !errors.Is(err, errBoom) {
		t.Fatalf("zero policy: calls=%d attempts=%d err=%v", calls, attempts, err)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Retryable: "retryable", Permanent: "permanent", Aborted: "aborted", Class(9): "class(9)"} {
		if got := c.String(); got != want {
			t.Fatalf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}
