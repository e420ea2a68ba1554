// Package dispatch is the distributed campaign coordinator: it shards a
// campaign grid across a pool of snoopd workers and reassembles exactly
// the result set a local snoopmva.RunCampaign would have produced.
//
// The correctness anchor is that the solvers are deterministic: any
// worker, any number of times, produces bitwise-identical numbers for the
// same point. Everything the coordinator does to survive failures —
// requeueing points whose worker vanished, speculatively re-dispatching
// stragglers to an idle worker, discarding the losers of a replica race —
// therefore cannot change the committed results, only when and where they
// were computed. The first answer to arrive for a point is committed and
// journaled; every later answer for that point is discarded.
//
// Failure handling is layered:
//
//   - Per-worker circuit breakers (reusing resilience.Breaker, keyed by
//     worker address) stop routing points at a worker whose transport
//     keeps failing, with probe-through so a recovered worker wins its
//     traffic back. Its half-open probe counts the worker's wakes:
//     settles and, while the circuit is open, its health probes.
//   - A health prober hits each worker's /healthz on an interval;
//     QuarantineAfter consecutive probe failures quarantines the worker
//     (no new work), readmitAfter (2) consecutive successes readmit it
//     and close its circuit. A draining snoopd (503 after SIGTERM)
//     quarantines the same way, so planned shutdowns look like detected
//     crashes.
//   - Straggler re-dispatch: once stragglerMinSamples (5) solves have
//     completed, a point in flight for longer than max(stragglerFloor
//     (100ms), stragglerFactor (4) × p95 of the last stragglerWindow
//     (128) solve times) is speculatively re-sent to an idle worker (up
//     to maxReplicas (2) concurrent replicas); first committed answer
//     wins. An idle slot sleeps until the earliest such deadline.
//   - Transport failures requeue the point (bounded by requeueLimit,
//     8); authoritative solver failures are committed as failed points,
//     just like the local runner journals them.
//   - Backpressure — a worker answering 429 (admission shed) or 503
//     (draining) — is neither: the worker is alive and explicit about
//     its state. The point goes straight back into the queue so an
//     uncongested worker picks it up immediately, while the refusing
//     worker honors its own Retry-After (capped at backpressureDelayCap,
//     2s) by taking no new work until the delay passes — that is what
//     shifts load across the pool. Refusals are bounded per point by
//     backpressureLimit (32), and the circuit breaker is NOT fed —
//     otherwise a loaded or rolling-restarting worker set would
//     quarantine itself into a total outage.
//   - The journal is the same campaign journal format the local runner
//     writes (snoopmva.OpenCampaignJournal), so a coordinator crash
//     resumes — under either runner — with a result set identical to an
//     uninterrupted run.
//   - A stall watchdog fails the run if nothing has been dispatched or
//     committed for StallTimeout, converting a wedged cluster into a
//     typed error instead of a hang.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"snoopmva"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/resilience"
)

// ErrStalled reports a run aborted by the stall watchdog: no dispatch or
// commit happened for Config.StallTimeout, e.g. because every worker is
// quarantined with its circuit open.
var ErrStalled = errors.New("dispatch: run stalled: no progress within the stall timeout")

// errCrash marks the injected coordinator crash of the chaos tests (the
// faultinject.CampaignCrash hook), mirroring the local runner's behavior:
// the run stops abruptly with the journal unfinalized.
var errCrash = errors.New("dispatch: injected coordinator crash")

// Robustness tuning that is the same for every run.
const (
	// healthTimeout bounds one /healthz probe.
	healthTimeout = time.Second
	// readmitAfter is the number of consecutive probe successes that
	// readmits a quarantined worker.
	readmitAfter = 2
	// breakerProbe lets one dispatch through per this many skipped at an
	// open circuit.
	breakerProbe = 4
	// stragglerFactor scales the p95 of completed solve times into the
	// straggler threshold.
	stragglerFactor = 4
	// stragglerWindow is the number of most recent solve times that p95
	// is taken over, so its cost does not grow with the grid.
	stragglerWindow = 128
	// stragglerMinSamples is the number of completed solves required
	// before speculation starts.
	stragglerMinSamples = 5
	// stragglerFloor is the minimum straggler threshold, so speculation
	// never chases microsecond-scale jitter.
	stragglerFloor = 100 * time.Millisecond
	// maxReplicas caps concurrent replicas of one point (the primary
	// dispatch plus speculative re-dispatches).
	maxReplicas = 2
	// requeueLimit bounds how many times a point is re-dispatched after
	// transport failures before it is committed as failed.
	requeueLimit = 8
	// backpressureLimit bounds how many times a point is requeued after
	// worker backpressure (429/503) before it is committed as failed.
	// It is much larger than requeueLimit because backpressure is the
	// pool working as designed, not failing.
	backpressureLimit = 32
	// backpressureDelayCap caps the honored Retry-After delay of a
	// backpressure requeue, so a confused worker cannot park a point for
	// an hour.
	backpressureDelayCap = 2 * time.Second
	// backpressurePark is the park of a backpressure refusal that gave
	// no Retry-After hint.
	backpressurePark = 25 * time.Millisecond
)

// Config configures a Coordinator. Zero values mean the documented
// defaults; the only required field is Transports.
type Config struct {
	// Transports is the worker pool. At least one is required.
	Transports []Transport
	// Journal is the campaign journal path; "" runs without durability
	// (no resume possible). The format is the local runner's, so local
	// and distributed runs can resume each other's journals.
	Journal string
	// Resume continues from an existing journal, skipping committed
	// points. Without it, a non-empty journal is refused.
	Resume bool
	// PointTimeout bounds one dispatch of one point (it becomes the
	// request context deadline). 0 means no per-point deadline.
	PointTimeout time.Duration
	// HealthInterval is the /healthz probe period. 0 means 2s; negative
	// disables probing (quarantine then never triggers, but circuit
	// breakers still isolate failing workers).
	HealthInterval time.Duration
	// QuarantineAfter is the number of consecutive probe failures that
	// quarantines a worker. 0 means 3; negative is invalid.
	QuarantineAfter int
	// BreakerThreshold opens a worker's circuit after this many
	// consecutive transport failures. 0 means 5; negative disables the
	// breakers.
	BreakerThreshold int
	// StallTimeout aborts the run with ErrStalled when no dispatch or
	// commit has happened for this long. 0 means 2m; negative disables.
	StallTimeout time.Duration
	// MaxInflight is the number of concurrent points per worker. 0
	// means 1; negative is invalid.
	MaxInflight int
	// Logf, when non-nil, receives coordinator events (quarantines,
	// requeues, speculation) for operator visibility. Nil discards.
	Logf func(format string, args ...any)
}

// RunStats describes how a distributed run went: where the work ran and
// what the robustness machinery had to do. It is diagnostic output; the
// campaign's answer is the CampaignResult.
type RunStats struct {
	// Dispatches counts every point sent to a worker, including
	// speculative replicas and requeue re-dispatches.
	Dispatches int
	// Redispatches counts re-dispatches after transport failures.
	Redispatches int
	// Speculative counts straggler replicas launched.
	Speculative int
	// Backpressure counts requeues caused by worker 429/503 answers
	// (these do not count as Redispatches and never feed the breakers).
	Backpressure int
	// Duplicates counts answers discarded because another replica had
	// already committed the point.
	Duplicates int
	// Quarantined and Readmitted count worker state transitions.
	Quarantined int
	Readmitted  int
	// WorkerCommits maps worker address → points whose committed answer
	// it produced.
	WorkerCommits map[string]int
	// OpenWorkers lists workers whose circuit was open or that were
	// quarantined when the run finished.
	OpenWorkers []string
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Coordinator shards campaign grids across a worker pool. Construct with
// New; a Coordinator is single-use (one Run).
type Coordinator struct {
	cfg     Config
	breaker *resilience.Breaker

	mu        sync.Mutex
	points    []snoopmva.CampaignPoint
	queue     []int             // point indexes awaiting (re-)dispatch
	flights   map[int][]*flight // outstanding replicas per point
	committed map[int]snoopmva.PointResult
	requeues  map[int]int // transport-failure count per point
	// backpressures counts 429/503 refusals per point, for the
	// backpressureLimit bound.
	backpressures  map[int]int
	durations      [stragglerWindow]time.Duration // ring of the last solve times
	solves         int
	stragglerAfter time.Duration // straggler threshold; 0 below stragglerMinSamples solves
	workers        []*worker
	journal        *snoopmva.CampaignJournal
	recorded       int   // journal records written this run (crash-hook clock)
	runErr         error // first fatal error; latches
	lastEvent      time.Time
	notifyCh       chan struct{}
	slots, idle    int // dispatch slots; those waiting on notifyCh with no timer
	stats          RunStats
	cancelRun      context.CancelFunc
}

type worker struct {
	t           Transport
	inflight    int
	quarantined bool
	probeFails  int
	probeOKs    int
	// congestedUntil parks the worker after it answered with
	// backpressure: no new dispatches until its Retry-After passes,
	// which is what shifts load to the uncongested rest of the pool.
	congestedUntil time.Time
}

type flight struct {
	worker      *worker
	cancel      context.CancelFunc
	started     time.Time
	speculative bool
}

// New validates cfg, fills in defaults, and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Transports) == 0 {
		return nil, fmt.Errorf("dispatch: at least one worker transport is required: %w", snoopmva.ErrInvalidInput)
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("dispatch: MaxInflight must be >= 0, got %d: %w", cfg.MaxInflight, snoopmva.ErrInvalidInput)
	}
	if cfg.QuarantineAfter < 0 {
		return nil, fmt.Errorf("dispatch: QuarantineAfter must be >= 0, got %d: %w", cfg.QuarantineAfter, snoopmva.ErrInvalidInput)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 2 * time.Minute
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{cfg: cfg, notifyCh: make(chan struct{})}
	if cfg.BreakerThreshold > 0 {
		c.breaker = resilience.NewBreaker(cfg.BreakerThreshold, breakerProbe)
	}
	for _, t := range cfg.Transports {
		c.workers = append(c.workers, &worker{t: t})
	}
	return c, nil
}

// Run executes the grid across the worker pool and returns the same
// CampaignResult a local run of the grid would produce, plus the run's
// dispatch statistics. On error the journal still holds every point
// committed so far, and a re-run with Resume continues from it.
func (c *Coordinator) Run(ctx context.Context, points []snoopmva.CampaignPoint) (snoopmva.CampaignResult, RunStats, error) {
	start := time.Now()
	fail := func(err error) (snoopmva.CampaignResult, RunStats, error) {
		c.finishStats(start)
		return snoopmva.CampaignResult{}, c.stats, err
	}
	if len(points) == 0 {
		return fail(fmt.Errorf("dispatch: campaign has no points: %w", snoopmva.ErrInvalidInput))
	}
	c.points = points
	c.flights = map[int][]*flight{}
	c.committed = map[int]snoopmva.PointResult{}
	c.requeues = map[int]int{}
	c.backpressures = map[int]int{}
	c.stats.WorkerCommits = map[string]int{}
	c.lastEvent = start

	if c.cfg.Journal != "" {
		fp := snoopmva.CampaignFingerprint(points)
		cj, err := snoopmva.OpenCampaignJournal(c.cfg.Journal, fp, len(points), c.cfg.Resume)
		if err != nil {
			return fail(err)
		}
		c.journal = cj
		for idx, pr := range cj.Completed() {
			pr.Resumed = true
			c.committed[idx] = pr
		}
	}
	for i := range points {
		if _, done := c.committed[i]; !done {
			c.queue = append(c.queue, i)
		}
	}

	// Count before any goroutine starts: workers dequeue under c.mu.
	queued := len(c.queue)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.cancelRun = cancel

	var wg sync.WaitGroup
	if c.cfg.HealthInterval > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); c.probeLoop(runCtx) }()
	}
	if c.cfg.StallTimeout > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); c.stallLoop(runCtx) }()
	}
	c.slots = len(c.workers) * c.cfg.MaxInflight
	for _, w := range c.workers {
		for range c.cfg.MaxInflight {
			wg.Add(1)
			go func(w *worker) { defer wg.Done(); c.workerLoop(runCtx, w) }(w)
		}
	}
	c.cfg.Logf("dispatch: %d points across %d workers (%d slots)", queued, len(c.workers), c.slots)

	// Wait until every point is committed or a fatal error latched.
	c.awaitDone(runCtx)
	cancel()
	wg.Wait()

	c.mu.Lock()
	err := c.runErr
	crashed := errors.Is(err, errCrash)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("dispatch: run canceled: %w: %w", snoopmva.ErrCanceled, context.Cause(ctx))
	}
	c.mu.Unlock()

	// An injected crash leaves the journal unfinalized, like the process
	// dying would; every other exit path closes it.
	if c.journal != nil && !crashed {
		if cerr := c.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.finishStats(start)
	if err != nil {
		return snoopmva.CampaignResult{}, c.stats, err
	}

	res := snoopmva.CampaignResult{Results: make([]snoopmva.PointResult, len(points))}
	for i := range points {
		pr := c.committed[i]
		res.Results[i] = pr
		if pr.Resumed {
			res.Resumed++
		} else {
			res.Computed++
		}
		if pr.Err != "" {
			res.Failed++
		}
	}
	return res, c.stats, nil
}

// awaitDone blocks until all points are committed, a fatal error
// latches, or ctx is canceled.
func (c *Coordinator) awaitDone(ctx context.Context) {
	for {
		c.mu.Lock()
		done := len(c.committed) == len(c.points) || c.runErr != nil
		ch := c.notifyCh
		c.mu.Unlock()
		if done {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ch:
		}
	}
}

// notifyLocked broadcasts a state change to every waiter. Callers hold mu.
func (c *Coordinator) notifyLocked() {
	close(c.notifyCh)
	c.notifyCh = make(chan struct{})
	c.idle = 0
}

// progressLocked stamps the stall-watchdog clock. Callers hold mu.
func (c *Coordinator) progressLocked() { c.lastEvent = time.Now() }

// fatalLocked latches the run's first fatal error and cancels the run.
// Callers hold mu.
func (c *Coordinator) fatalLocked(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.notifyLocked()
	if c.cancelRun != nil {
		c.cancelRun()
	}
}

// acquire outcome states.
const (
	acqGot = iota
	acqWait
	acqDone
)

// acquisition is tryAcquire's answer: with acqGot the started flight and
// its context; with acqWait what the waiting worker must watch, read under
// the same lock as the decision: the notify channel current at that
// moment, so no state change between the decision and the wait goes
// unseen, and wakeAt, its park's end or else the next straggler deadline.
type acquisition struct {
	state  int
	pt     int
	fl     *flight
	fctx   context.Context
	notify <-chan struct{}
	wakeAt time.Time
}

// tryAcquire picks the next unit of work for w and starts its flight: a
// queued point if one exists, otherwise a straggler to replicate. It
// answers acqWait when w is ineligible (quarantined, full, parked,
// circuit open) or nothing is ready, and acqDone when the run is over.
func (c *Coordinator) tryAcquire(ctx context.Context, w *worker) acquisition {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil || len(c.committed) == len(c.points) || ctx.Err() != nil {
		return acquisition{state: acqDone}
	}
	now := time.Now()
	wakeAt := w.congestedUntil
	if !w.quarantined && w.inflight < c.cfg.MaxInflight && !now.Before(wakeAt) {
		if len(c.queue) > 0 {
			if c.allow(w) {
				pt := c.queue[0]
				c.queue = c.queue[1:]
				return c.startLocked(ctx, w, pt, false)
			}
		} else if pt, due := c.stragglerLocked(w); pt >= 0 && due.After(now) {
			wakeAt = due
		} else if pt >= 0 && c.allow(w) {
			return c.startLocked(ctx, w, pt, true)
		}
	}
	if !wakeAt.After(now) {
		// Only a notify can wake this slot. Once every slot waits so, no
		// flight is left to settle, and with no health probe nothing can.
		wakeAt = time.Time{}
		if c.idle++; c.idle == c.slots && c.cfg.HealthInterval < 0 {
			c.fatalLocked(fmt.Errorf("%w (every slot idle, health probing off, %d/%d points committed)", ErrStalled, len(c.committed), len(c.points)))
			return acquisition{state: acqDone}
		}
	}
	return acquisition{state: acqWait, notify: c.notifyCh, wakeAt: wakeAt}
}

// startLocked starts a flight of pt on w. It is added under the lock
// that picked pt, so every later straggler scan sees it. Callers hold mu.
func (c *Coordinator) startLocked(ctx context.Context, w *worker, pt int, speculative bool) acquisition {
	fctx, cancel := context.WithCancel(ctx)
	if c.cfg.PointTimeout > 0 {
		fctx, cancel = context.WithTimeout(ctx, c.cfg.PointTimeout)
	}
	fl := &flight{worker: w, cancel: cancel, started: time.Now(), speculative: speculative}
	c.flights[pt] = append(c.flights[pt], fl)
	w.inflight++
	c.stats.Dispatches++
	if speculative {
		c.stats.Speculative++
		c.cfg.Logf("dispatch: point %d: speculative replica on %s", pt, w.t.Addr())
	}
	c.progressLocked()
	return acquisition{state: acqGot, pt: pt, fl: fl, fctx: fctx}
}

// allow consults w's circuit breaker (true when breakers are disabled).
func (c *Coordinator) allow(w *worker) bool {
	return c.breaker == nil || c.breaker.Allow(w.t.Addr())
}

// stragglerLocked returns the point, and its straggler deadline, whose
// oldest flight is the first to outlive the straggler threshold among
// those that can take one more replica not already running on w; -1 if
// none can. Callers hold mu.
func (c *Coordinator) stragglerLocked(w *worker) (int, time.Time) {
	best, bestStart := -1, time.Time{}
	if c.stragglerAfter == 0 {
		return best, bestStart
	}
	for pt, fls := range c.flights {
		if len(fls) == 0 || len(fls) >= maxReplicas {
			continue
		}
		onW := false
		oldest := fls[0].started
		for _, fl := range fls {
			if fl.worker == w {
				onW = true
			}
			if fl.started.Before(oldest) {
				oldest = fl.started
			}
		}
		if onW {
			continue
		}
		if best < 0 || oldest.Before(bestStart) {
			best, bestStart = pt, oldest
		}
	}
	return best, bestStart.Add(c.stragglerAfter)
}

// workerLoop is one dispatch slot of one worker: acquire, execute,
// repeat until the run is done or ctx is canceled. A waiting slot sleeps
// until a state change is notified or its wakeAt passes; nothing else
// makes work eligible, so it never polls.
func (c *Coordinator) workerLoop(ctx context.Context, w *worker) {
	for {
		a := c.tryAcquire(ctx, w)
		switch a.state {
		case acqDone:
			return
		case acqGot:
			c.execute(ctx, w, a)
			continue
		}
		var due <-chan time.Time
		var timer *time.Timer
		if !a.wakeAt.IsZero() {
			timer = time.NewTimer(time.Until(a.wakeAt))
			due = timer.C
		}
		select {
		case <-ctx.Done():
		case <-a.notify:
		case <-due:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// execute runs the flight a started on w and settles the outcome.
func (c *Coordinator) execute(ctx context.Context, w *worker, a acquisition) {
	defer a.fl.cancel()
	p := c.points[a.pt]
	best, err := w.t.SolveBest(a.fctx, p.Protocol, p.Workload, p.N, p.Budget)
	c.settle(ctx, w, a.pt, a.fl, best, err)
}

// settle records the outcome of one flight: commit the first answer for
// a point, discard duplicates, requeue transport failures.
func (c *Coordinator) settle(ctx context.Context, w *worker, pt int, fl *flight, best snoopmva.Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	fls := c.flights[pt]
	for i, f := range fls {
		if f == fl {
			c.flights[pt] = append(fls[:i], fls[i+1:]...)
			break
		}
	}
	w.inflight--
	defer c.notifyLocked()

	if c.runErr != nil {
		return
	}
	if _, done := c.committed[pt]; done {
		// A replica lost the race (or came back after a cancel). The
		// committed answer is identical by determinism; drop this one.
		if err == nil {
			c.stats.Duplicates++
			c.breakerSuccess(w)
		}
		return
	}
	if err == nil {
		c.commitLocked(w, pt, fl, snoopmva.PointResult{Index: pt, Attempts: 1, Result: best})
		return
	}
	if ctx.Err() != nil {
		return // run is shutting down; leave the point for a resume
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		// The worker answered: this point fails on the model itself.
		// Commit it exactly as the local runner journals failed points.
		c.breakerSuccess(w)
		c.commitLocked(w, pt, fl, c.failedPoint(pt, remote.Msg))
		return
	}

	var bp *BackpressureError
	if errors.As(err, &bp) {
		// The worker answered "not now": requeue the point immediately —
		// an uncongested worker should take it at once — and park only
		// the refusing worker for its Retry-After. Do NOT feed its
		// breaker: an admission shed or a drain 503 is the overload
		// protocol working, and quarantining truthful workers turns load
		// into an outage.
		delay := min(bp.RetryAfter, backpressureDelayCap)
		if delay <= 0 {
			delay = backpressurePark
		}
		w.congestedUntil = time.Now().Add(delay)
		c.stats.Backpressure++
		c.backpressures[pt]++
		c.cfg.Logf("dispatch: point %d on %s: backpressure (%s), requeued with %v delay", pt, w.t.Addr(), bp.Code, delay)
		if len(c.flights[pt]) > 0 {
			return // a replica is still flying; let it decide the point
		}
		if c.backpressures[pt] > backpressureLimit {
			// Deterministic message, like the requeue-limit one below.
			c.commitLocked(w, pt, fl, c.failedPoint(pt, fmt.Sprintf(
				"dispatch: point %d: worker backpressure exhausted the requeue limit (%d)", pt, backpressureLimit)))
			return
		}
		c.queue = append(c.queue, pt)
		c.progressLocked()
		return
	}

	// Transport failure: the answer never arrived. Penalize the worker's
	// circuit and put the point back in play unless its requeue budget is
	// spent and no other replica is still flying.
	if c.breaker != nil {
		if c.breaker.Failure(w.t.Addr()) {
			c.cfg.Logf("dispatch: worker %s: circuit open after repeated transport failures", w.t.Addr())
		}
	}
	c.cfg.Logf("dispatch: point %d on %s: %v", pt, w.t.Addr(), err)
	c.requeues[pt]++
	if len(c.flights[pt]) > 0 {
		return // a replica is still flying; let it decide the point
	}
	if c.requeues[pt] > requeueLimit {
		// Deterministic message: which workers failed and why varies run
		// to run, so the journaled text must not depend on it.
		c.commitLocked(w, pt, fl, c.failedPoint(pt, fmt.Sprintf(
			"dispatch: point %d: transport failures exhausted the requeue limit (%d)", pt, requeueLimit)))
		return
	}
	c.stats.Redispatches++
	c.queue = append(c.queue, pt)
	c.progressLocked()
}

// failedPoint is the record of a point that failed for good.
func (c *Coordinator) failedPoint(pt int, msg string) snoopmva.PointResult {
	return snoopmva.PointResult{Index: pt, Attempts: 1, Result: snoopmva.Result{N: c.points[pt].N}, Err: msg}
}

// commitLocked journals and records the first answer for a point,
// cancels the point's other replicas, and runs the crash hook. Callers
// hold mu.
func (c *Coordinator) commitLocked(w *worker, pt int, fl *flight, pr snoopmva.PointResult) {
	if c.journal != nil {
		if err := c.journal.Append(pr); err != nil {
			c.fatalLocked(err)
			return
		}
		c.recorded++
	}
	c.committed[pt] = pr
	c.stats.WorkerCommits[w.t.Addr()]++
	if pr.Err == "" {
		c.durations[c.solves%stragglerWindow] = time.Since(fl.started)
		c.solves++
		if n := min(c.solves, stragglerWindow); n >= stragglerMinSamples {
			s := c.durations // sort a copy; the p95 is the ceil-rank element
			slices.Sort(s[:n])
			c.stragglerAfter = max(stragglerFloor, stragglerFactor*s[(n*95+99)/100-1])
		}
		c.breakerSuccess(w)
	}
	for _, other := range c.flights[pt] {
		other.cancel()
	}
	c.progressLocked()
	if h := faultinject.Hooks(); h != nil && h.CampaignCrash != nil && h.CampaignCrash(c.recorded) {
		c.fatalLocked(errCrash)
	}
}

func (c *Coordinator) breakerSuccess(w *worker) {
	if c.breaker != nil {
		c.breaker.Success(w.t.Addr())
	}
}

// probeLoop periodically probes every worker's /healthz, quarantining
// after QuarantineAfter consecutive failures and readmitting (circuit
// closed) after readmitAfter consecutive successes.
func (c *Coordinator) probeLoop(ctx context.Context) {
	tick := time.NewTicker(c.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, w := range c.workers {
			pctx, cancel := context.WithTimeout(ctx, healthTimeout)
			err := w.t.Healthz(pctx)
			cancel()
			if ctx.Err() != nil {
				return
			}
			c.recordProbe(w, err)
		}
	}
}

// recordProbe folds one probe outcome into w's quarantine state. Probing
// an open circuit's worker wakes its slots, to count toward the probe.
func (c *Coordinator) recordProbe(w *worker, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breaker != nil && c.breaker.Open(w.t.Addr()) {
		defer c.notifyLocked()
	}
	if err != nil {
		w.probeOKs = 0
		w.probeFails++
		if !w.quarantined && w.probeFails >= c.cfg.QuarantineAfter {
			w.quarantined = true
			c.stats.Quarantined++
			c.cfg.Logf("dispatch: worker %s quarantined after %d failed probes (%v)", w.t.Addr(), w.probeFails, err)
			c.notifyLocked()
		}
		return
	}
	w.probeFails = 0
	w.probeOKs++
	if w.quarantined && w.probeOKs >= readmitAfter {
		w.quarantined = false
		w.probeOKs = 0
		c.stats.Readmitted++
		// A worker that answers probes again deserves a closed circuit;
		// otherwise readmission would still route nothing at it.
		c.breakerSuccess(w)
		c.cfg.Logf("dispatch: worker %s readmitted", w.t.Addr())
		c.notifyLocked()
	}
}

// stallLoop aborts the run when no dispatch or commit has happened for
// StallTimeout.
func (c *Coordinator) stallLoop(ctx context.Context) {
	period := c.cfg.StallTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		c.mu.Lock()
		stalled := c.runErr == nil && len(c.committed) < len(c.points) &&
			time.Since(c.lastEvent) > c.cfg.StallTimeout
		if stalled {
			c.fatalLocked(fmt.Errorf("%w (last progress %s ago, %d/%d points committed)",
				ErrStalled, time.Since(c.lastEvent).Round(time.Millisecond), len(c.committed), len(c.points)))
		}
		c.mu.Unlock()
	}
}

// finishStats stamps the run-final fields of c.stats.
func (c *Coordinator) finishStats(start time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Elapsed = time.Since(start)
	c.stats.OpenWorkers = nil
	for _, w := range c.workers {
		if w.quarantined || (c.breaker != nil && c.breaker.Open(w.t.Addr())) {
			c.stats.OpenWorkers = append(c.stats.OpenWorkers, w.t.Addr())
		}
	}
	slices.Sort(c.stats.OpenWorkers)
}
