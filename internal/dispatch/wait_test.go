package dispatch

// The wait rule: an idle slot sleeps until a notify, ctx, or one timer at
// the wakeAt that tryAcquire hands it. Most of these tests drive
// tryAcquire and the settle path directly, so they need no sleeps.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva"
)

// idleCoordinator returns a coordinator for cfg with the state Run sets
// up for a grid of n zero-valued points, none of them queued.
func idleCoordinator(tb testing.TB, cfg Config, n int) *Coordinator {
	tb.Helper()
	c, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	c.points = make([]snoopmva.CampaignPoint, n)
	c.flights = map[int][]*flight{}
	c.committed = map[int]snoopmva.PointResult{}
	c.requeues = map[int]int{}
	c.backpressures = map[int]int{}
	c.stats.WorkerCommits = map[string]int{}
	return c
}

// commitSolve commits point pt as solved on w by a flight started at
// started, so its solve time enters the straggler window.
func commitSolve(c *Coordinator, w *worker, pt int, started time.Time) {
	c.commitLocked(w, pt, &flight{worker: w, started: started}, snoopmva.PointResult{Index: pt, Attempts: 1})
}

func TestStragglerDeadlineIsWakeAt(t *testing.T) {
	ts := []Transport{&fakeTransport{addr: "fake://a"}, &fakeTransport{addr: "fake://b"}}
	c := idleCoordinator(t, Config{Transports: ts}, 2*stragglerWindow+2)
	wa, wb := c.workers[0], c.workers[1]
	inFlight := len(c.points) - 1
	ctx := context.Background()
	start := time.Now()
	c.flights[inFlight] = []*flight{{worker: wb, started: start}}
	wb.inflight = 1

	// Every committed solve took a minute, so the threshold is about four
	// minutes and the in-flight point stays short of it in the test.
	for pt := range stragglerMinSamples - 1 {
		commitSolve(c, wa, pt, start.Add(-time.Minute))
	}
	if a := c.tryAcquire(ctx, wa); a.state != acqWait || !a.wakeAt.IsZero() {
		t.Fatalf("with %d samples: state/wakeAt = %d/%v, want a wait with no deadline",
			stragglerMinSamples-1, a.state, a.wakeAt)
	}
	commitSolve(c, wa, stragglerMinSamples-1, start.Add(-time.Minute))
	if c.stragglerAfter < stragglerFactor*time.Minute {
		t.Fatalf("threshold = %v, want at least %v", c.stragglerAfter, stragglerFactor*time.Minute)
	}
	a := c.tryAcquire(ctx, wa)
	if want := start.Add(c.stragglerAfter); a.state != acqWait || !a.wakeAt.Equal(want) {
		t.Fatalf("state/wakeAt = %d/%v, want a wait until the flight's start + threshold %v", a.state, a.wakeAt, want)
	}

	// An earlier park is the wakeAt.
	park := time.Now().Add(time.Minute)
	wa.congestedUntil = park
	if a := c.tryAcquire(ctx, wa); a.state != acqWait || !a.wakeAt.Equal(park) {
		t.Fatalf("parked: state/wakeAt = %d/%v, want a wait until the park %v", a.state, a.wakeAt, park)
	}
	wa.congestedUntil = time.Time{}

	// A flight past its deadline is replicated at once.
	c.flights[inFlight][0].started = start.Add(-c.stragglerAfter)
	if a := c.tryAcquire(ctx, wa); a.state != acqGot || a.pt != inFlight || !a.fl.speculative {
		t.Fatalf("overdue flight: got %+v, want a speculative acquire of point %d", a, inFlight)
	}

	// The threshold follows only the last stragglerWindow solves.
	for pt := stragglerMinSamples; pt < inFlight; pt++ {
		commitSolve(c, wa, pt, time.Now())
	}
	if c.stragglerAfter != stragglerFloor {
		t.Errorf("after a window of fast solves: threshold = %v, want the floor %v", c.stragglerAfter, stragglerFloor)
	}
}

// TestAcquiredPointIsInFlight pins that a slot which takes a queued point
// starts its flight under the same lock, so a peer scanning at once
// already waits for that flight's straggler deadline.
func TestAcquiredPointIsInFlight(t *testing.T) {
	ts := []Transport{&fakeTransport{addr: "fake://a"}, &fakeTransport{addr: "fake://b"}}
	c := idleCoordinator(t, Config{Transports: ts}, stragglerMinSamples+1)
	wa, wb := c.workers[0], c.workers[1]
	for pt := range stragglerMinSamples {
		commitSolve(c, wa, pt, time.Now())
	}
	c.queue = []int{stragglerMinSamples}
	ctx := context.Background()
	a := c.tryAcquire(ctx, wa)
	if a.state != acqGot || a.pt != stragglerMinSamples {
		t.Fatalf("got %+v, want point %d", a, stragglerMinSamples)
	}
	defer a.fl.cancel()
	if b := c.tryAcquire(ctx, wb); b.state != acqWait || !b.wakeAt.Equal(a.fl.started.Add(c.stragglerAfter)) {
		t.Fatalf("peer: state/wakeAt = %d/%v, want a wait until %v", b.state, b.wakeAt, a.fl.started.Add(c.stragglerAfter))
	}
}

func TestOpenCircuitProbedEveryFourthHealthRound(t *testing.T) {
	// The first dispatch fails and the second succeeds.
	var calls atomic.Int32
	flaky := &fakeTransport{addr: "fake://w", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		if calls.Add(1) == 1 {
			return snoopmva.Result{}, &TransportError{Addr: "fake://w", Route: routeSolveBest, Err: errors.New("connection refused")}
		}
		return snoopmva.Result{N: n}, nil
	}}
	c := idleCoordinator(t, Config{Transports: []Transport{flaky}, BreakerThreshold: 1}, 1)
	c.queue = []int{0}
	w := c.workers[0]
	c.breaker.Failure(w.t.Addr())
	ctx := context.Background()

	// With no peer to settle, only health rounds wake the open worker's
	// slot: it waits with no timer, and every breakerProbe-th wake lets a
	// dispatch through.
	var probes []int
	a := acquisition{notify: c.notifyCh}
	for round := 1; round <= 2*breakerProbe; round++ {
		c.recordProbe(w, nil)
		select {
		case <-a.notify:
		default:
			t.Fatalf("health round %d did not wake the open worker's slot", round)
		}
		switch a = c.tryAcquire(ctx, w); {
		case a.state == acqGot:
			probes = append(probes, round)
			c.execute(ctx, w, a)
			a = acquisition{notify: c.notifyCh}
		case !a.wakeAt.IsZero():
			t.Fatalf("health round %d: the open worker's slot waits until %v, want no timer", round, a.wakeAt)
		}
	}
	if want := []int{breakerProbe, 2 * breakerProbe}; fmt.Sprint(probes) != fmt.Sprint(want) {
		t.Fatalf("dispatches in health rounds %v, want %v", probes, want)
	}
	if c.breaker.Open(w.t.Addr()) {
		t.Error("the successful probe should close the circuit")
	}
	if pr, ok := c.committed[0]; !ok || pr.Err != "" {
		t.Errorf("point 0 committed = %v (%+v), want a success", ok, pr)
	}
}

// TestStallWhenEveryCircuitOpenWithoutProbes pins what a run with health
// probing off does once every circuit is open and points are still
// queued: no event is left to drive a half-open probe, so the run ends
// in ErrStalled at once, with the watchdog on or off and the points
// unspent, and a resume finishes them.
func TestStallWhenEveryCircuitOpenWithoutProbes(t *testing.T) {
	points := testGrid(t, 3)
	want := localReference(t, points)
	dead := &fakeTransport{addr: "fake://dead", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		return snoopmva.Result{}, &TransportError{Addr: "fake://dead", Route: routeSolveBest, Err: errors.New("connection refused")}
	}}
	for _, stall := range []time.Duration{-1, time.Minute} {
		t.Run(fmt.Sprintf("StallTimeout=%v", stall), func(t *testing.T) {
			cfg := quickCfg([]Transport{dead})
			cfg.Journal = filepath.Join(t.TempDir(), "stall.journal")
			cfg.HealthInterval = -1
			cfg.BreakerThreshold = 2
			cfg.StallTimeout = stall
			c, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// Far short of the watchdog: a run that hangs fails here.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, stats, err := c.Run(ctx, points)
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("Run with every circuit open and no probes: err = %v, want ErrStalled", err)
			}
			if stats.Dispatches != cfg.BreakerThreshold || len(stats.OpenWorkers) != 1 {
				t.Errorf("dispatches/open workers = %d/%v, want %d/[fake://dead]", stats.Dispatches, stats.OpenWorkers, cfg.BreakerThreshold)
			}

			cfg.Transports = []Transport{&fakeTransport{addr: "fake://ok", solve: localSolve}}
			cfg.Resume = true
			c2, err := New(cfg)
			if err != nil {
				t.Fatalf("New (resume): %v", err)
			}
			got, _, err := c2.Run(ctx, points)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got.Computed != len(points) {
				t.Errorf("computed = %d, want %d", got.Computed, len(points))
			}
			assertSameResults(t, want, got)
		})
	}
}

// BenchmarkIdleAcquire times one wake of an idle slot: the queue is
// empty, one point is in flight on another worker, and 1k or 20k points
// are committed. The straggler threshold comes from a fixed window, so
// the cost must not grow with the history.
func BenchmarkIdleAcquire(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("committed=%d", n), func(b *testing.B) {
			ts := []Transport{&fakeTransport{addr: "fake://a"}, &fakeTransport{addr: "fake://b"}}
			c := idleCoordinator(b, Config{Transports: ts}, n+1)
			wa, wb := c.workers[0], c.workers[1]
			// Each solve took an hour, so the in-flight point stays short
			// of the straggler threshold however long the benchmark runs.
			for pt := range n {
				commitSolve(c, wa, pt, time.Now().Add(-time.Hour))
			}
			c.flights[n] = []*flight{{worker: wb, started: time.Now()}}
			wb.inflight = 1
			b.ResetTimer()
			for range b.N {
				if a := c.tryAcquire(context.Background(), wa); a.state != acqWait {
					b.Fatalf("state = %d, want acqWait", a.state)
				}
			}
		})
	}
}
