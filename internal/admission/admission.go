// Package admission is the overload-protection layer of the serving
// path: an adaptive concurrency limiter, a deadline-aware admission
// queue, a per-client token-bucket rate limiter, and a brownout
// detector, composed into one Controller that decides — in microseconds
// and without allocating on the admitted fast path — whether a request
// may enter service now, wait briefly, or must be shed immediately.
//
// The design follows the classic overload literature rather than ad-hoc
// caps:
//
//   - The concurrency limit adapts by AIMD on observed service latency
//     against a target (the gradient/Vegas-limiter family): every
//     release at or under target earns additive credit (the limit grows
//     by one once a full window of successes accumulates), while a
//     release over target multiplicatively decreases the limit — at
//     most once per cool-off period, so one slow burst cannot collapse
//     it to the floor.
//   - The admission queue is deadline-aware: a request that would,
//     by the current wait estimate (EWMA service time × queue position
//     ÷ limit), outlive its remaining deadline is shed *now* with a
//     Retry-After hint instead of timing out in queue or — worse — in
//     service, where it would burn capacity producing an answer nobody
//     is waiting for. This is the mechanism that keeps the server out
//     of the metastable regime where all capacity goes to dead work.
//   - Per-client token buckets police individual clients independently
//     of global load, so one chatty client saturating its bucket cannot
//     starve the rest (requests without a client id are not policed;
//     the serving layer documents how ids are assigned).
//   - The brownout detector watches the capacity-shed rate over a
//     sliding window; above a threshold the serving layer degrades
//     expensive endpoints to cheap answers (cache hit or MVA-only)
//     instead of rejecting — trading provenance for availability, with
//     hysteresis (half the threshold) so the mode does not flap.
//
// The package is stdlib-only, sits below the public API (it cannot see
// the root sentinels; callers map ShedError onto their own taxonomy),
// spawns no goroutines of its own — queued waiters are the request
// goroutines themselves, so there is nothing to leak — and reports
// into internal/obs (admitted/shed counters, limit/inflight/queue-depth
// /brownout gauges).
package admission

import (
	"context"
	"fmt"
	"sync"
	"time"

	"snoopmva/internal/obs"
)

// Reason says why a request was shed.
type Reason uint8

const (
	// ReasonQueueFull: the admission queue is at its bound.
	ReasonQueueFull Reason = iota
	// ReasonDeadline: the request's remaining deadline (or the maximum
	// queue wait) is shorter than the estimated wait, or it expired
	// while queued.
	ReasonDeadline
	// ReasonRateLimit: the client's token bucket is empty.
	ReasonRateLimit
	// ReasonDraining: the server is draining; new work must go elsewhere.
	ReasonDraining
	// ReasonCanceled: the caller's context fired while queued.
	ReasonCanceled
)

// shedReasons is the closed label set of the shed counter, indexed by
// Reason.
var shedReasons = [...]string{"queue_full", "deadline", "rate_limit", "draining", "canceled"}

// String implements fmt.Stringer.
func (r Reason) String() string {
	if int(r) < len(shedReasons) {
		return shedReasons[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// ShedError reports a request refused at admission. RetryAfter is the
// controller's backoff hint: the earliest time a retry is likely to be
// admitted (for rate-limited sheds it is exact — the time until the
// bucket refills one token).
type ShedError struct {
	Reason     Reason
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return "admission: request shed: " + e.Reason.String()
}

// Fixed tuning of the limiter and the shed hints.
const (
	// minInflight is the AIMD floor.
	minInflight = 1
	// decreaseFactor is the multiplicative decrease applied when a
	// release exceeds Target.
	decreaseFactor = 0.75
	// maxClients bounds the client-bucket table; the least recently
	// seen bucket is evicted beyond it.
	maxClients = 4096
	// minRetryAfter is the minimum Retry-After suggested on capacity
	// sheds.
	minRetryAfter = 100 * time.Millisecond
)

// Config configures a Controller. MaxInflight is required; every other
// zero value means the documented default.
type Config struct {
	// MaxInflight is the hard concurrency ceiling and the AIMD limit's
	// starting value. Required (>= 1).
	MaxInflight int
	// Target is the service-latency target the AIMD limiter steers to.
	// 0 means 50ms.
	Target time.Duration
	// QueueLimit bounds the number of queued waiters. 0 means
	// 2×MaxInflight; negative means no queue (immediate shed when full).
	QueueLimit int
	// MaxQueueWait bounds how long any request may sit queued,
	// deadline or not. 0 means 1s.
	MaxQueueWait time.Duration
	// RatePerClient is the per-client token refill rate in requests per
	// second. 0 disables per-client rate limiting; negative is invalid.
	RatePerClient float64
	// BurstPerClient is the bucket depth. 0 means max(1, RatePerClient).
	BurstPerClient float64
	// BrownoutShedPct is the capacity-shed fraction (queue_full +
	// deadline sheds over all capacity decisions in the window) above
	// which brownout mode activates. 0 disables brownout; values must
	// be < 1. Deactivation happens below half the threshold.
	BrownoutShedPct float64
	// BrownoutWindow is the sliding window the shed rate is measured
	// over. 0 means 5s.
	BrownoutWindow time.Duration
	// BrownoutMinSamples is the number of capacity decisions the window
	// must hold before brownout can trigger. 0 means 20.
	BrownoutMinSamples int
	// Registry receives the controller's metrics. Nil means obs.Default.
	Registry *obs.Registry
	// Name labels this controller's metric series. "" means "default".
	Name string

	// now is the test clock; nil means time.Now.
	now func() time.Time
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.MaxInflight < 1 {
		return cfg, fmt.Errorf("admission: MaxInflight must be >= 1, got %d", cfg.MaxInflight)
	}
	if cfg.Target == 0 {
		cfg.Target = 50 * time.Millisecond
	}
	if cfg.Target < 0 {
		return cfg, fmt.Errorf("admission: Target must be positive, got %v", cfg.Target)
	}
	switch {
	case cfg.QueueLimit == 0:
		cfg.QueueLimit = 2 * cfg.MaxInflight
	case cfg.QueueLimit < 0:
		cfg.QueueLimit = 0
	}
	if cfg.MaxQueueWait == 0 {
		cfg.MaxQueueWait = time.Second
	}
	if cfg.MaxQueueWait < 0 {
		return cfg, fmt.Errorf("admission: MaxQueueWait must be positive, got %v", cfg.MaxQueueWait)
	}
	if cfg.RatePerClient < 0 {
		return cfg, fmt.Errorf("admission: RatePerClient must be non-negative, got %v", cfg.RatePerClient)
	}
	if cfg.BurstPerClient == 0 {
		cfg.BurstPerClient = cfg.RatePerClient
		if cfg.BurstPerClient < 1 {
			cfg.BurstPerClient = 1
		}
	}
	if cfg.BurstPerClient < 1 {
		return cfg, fmt.Errorf("admission: BurstPerClient must be >= 1, got %v", cfg.BurstPerClient)
	}
	if cfg.BrownoutShedPct < 0 || cfg.BrownoutShedPct >= 1 {
		return cfg, fmt.Errorf("admission: BrownoutShedPct %v outside [0, 1)", cfg.BrownoutShedPct)
	}
	if cfg.BrownoutWindow == 0 {
		cfg.BrownoutWindow = 5 * time.Second
	}
	if cfg.BrownoutWindow < 0 {
		return cfg, fmt.Errorf("admission: BrownoutWindow must be positive, got %v", cfg.BrownoutWindow)
	}
	if cfg.BrownoutMinSamples == 0 {
		cfg.BrownoutMinSamples = 20
	}
	if cfg.BrownoutMinSamples < 1 {
		return cfg, fmt.Errorf("admission: BrownoutMinSamples must be >= 1, got %d", cfg.BrownoutMinSamples)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg, nil
}

// waiter is one queued request. The waiting goroutine is the request's
// own; the controller never spawns goroutines.
type waiter struct {
	ready   chan struct{}
	granted bool // a release handed this waiter its slot
	drained bool // BeginDrain flushed the queue under this waiter
}

// Controller is the composed admission decision-maker. Construct with
// New; all methods are safe for concurrent use. Every successful Admit
// must be paired with exactly one Release/ReleaseWith.
type Controller struct {
	cfg Config
	now func() time.Time

	mu           sync.Mutex
	limit        float64 // current AIMD concurrency limit
	inflight     int
	credit       float64 // additive-increase accumulator
	ewma         float64 // EWMA of observed service latency, seconds
	lastDecrease time.Time
	queue        []*waiter
	draining     bool
	clients      *clientTable
	brown        brownoutWindow

	admitted   *obs.Counter
	shed       [len(shedReasons)]*obs.Counter
	inflightG  *obs.Gauge
	limitG     *obs.Gauge
	queueG     *obs.Gauge
	brownoutG  *obs.Gauge
	queueWaits *obs.Histogram
}

// New validates cfg and returns a ready Controller with its metric
// series materialized (so the hot path only increments).
func New(cfg Config) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	c := &Controller{
		cfg:      cfg,
		now:      cfg.now,
		limit:    float64(cfg.MaxInflight),
		ewma:     cfg.Target.Seconds(),
		clients:  newClientTable(cfg.RatePerClient, cfg.BurstPerClient, maxClients),
		admitted: reg.Counter("snoopmva_admission_admitted_total", "Requests admitted into service.", obs.L("limiter", cfg.Name)),
		inflightG: reg.Gauge("snoopmva_admission_inflight", "Requests currently holding an admission slot.",
			obs.L("limiter", cfg.Name)),
		limitG: reg.Gauge("snoopmva_admission_limit", "Current AIMD concurrency limit.",
			obs.L("limiter", cfg.Name)),
		queueG: reg.Gauge("snoopmva_admission_queue_depth", "Requests waiting in the admission queue.",
			obs.L("limiter", cfg.Name)),
		brownoutG: reg.Gauge("snoopmva_admission_brownout", "1 while brownout degradation is active.",
			obs.L("limiter", cfg.Name)),
		queueWaits: reg.Histogram("snoopmva_admission_queue_wait_seconds", "Time admitted requests spent queued.",
			obs.ExpBuckets(1e-4, 4, 8), obs.L("limiter", cfg.Name)),
	}
	for i, reason := range shedReasons {
		c.shed[i] = reg.Counter("snoopmva_admission_shed_total", "Requests shed at admission, by reason.",
			obs.L("limiter", cfg.Name), obs.L("reason", reason))
	}
	c.brown.init(cfg.BrownoutWindow, cfg.BrownoutShedPct, cfg.BrownoutMinSamples, c.now())
	c.limitG.Set(c.limit)
	return c, nil
}

// Target returns the configured latency target (the default passed to
// ReleaseWith by callers without a per-route override).
func (c *Controller) Target() time.Duration { return c.cfg.Target }

// Admit decides whether a request enters service. client is the
// rate-limiting key ("" skips per-client policing). deadline, when
// non-zero, is the caller's absolute completion deadline; a request
// that cannot be served inside it is shed immediately. A nil return
// means admitted — the caller must pair it with one Release/ReleaseWith;
// otherwise the returned error is a *ShedError.
//
// The fast path — no queue, a slot free, the client bucket carrying a
// token — is a mutex acquisition, a bucket refill and two atomic metric
// updates, and performs no heap allocation.
//
//snoop:hotpath admitted fast path is lock + bucket refill + counters, no allocation
func (c *Controller) Admit(ctx context.Context, client string, deadline time.Time) error {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return c.shedErr(ReasonDraining, minRetryAfter)
	}
	if client != "" && c.cfg.RatePerClient > 0 {
		if wait := c.clients.take(client, c.now()); wait > 0 {
			c.mu.Unlock()
			return c.shedErr(ReasonRateLimit, wait)
		}
	}
	if len(c.queue) == 0 && c.inflight < c.limitInt() {
		c.inflight++
		c.noteCapacityLocked(false)
		c.inflightG.Set(float64(c.inflight))
		c.mu.Unlock()
		c.admitted.Inc()
		return nil
	}
	return c.admitSlow(ctx, deadline) // mu handed over, unlocked inside
}

// shedErr counts and constructs one shed outcome. Deliberately
// out-of-line (noinline keeps the compiler from hoisting it back): the
// *ShedError allocation lands on this function, off the annotated fast
// path, and is only ever paid by requests that are being refused.
//
//go:noinline
func (c *Controller) shedErr(r Reason, after time.Duration) error {
	c.shed[r].Inc()
	if after < time.Millisecond {
		after = time.Millisecond
	}
	return &ShedError{Reason: r, RetryAfter: after}
}

// limitInt is the integer concurrency bound (the AIMD limit floored,
// never below 1). Callers hold mu.
func (c *Controller) limitInt() int {
	l := int(c.limit)
	if l < 1 {
		l = 1
	}
	return l
}

// estimateWaitLocked estimates how long the pos-th queued request will
// wait: EWMA service time × position ÷ current limit. Callers hold mu.
func (c *Controller) estimateWaitLocked(pos int) time.Duration {
	return time.Duration(c.ewma * float64(pos) / float64(c.limitInt()) * float64(time.Second))
}

// admitSlow is the queued path: the request waits for a released slot,
// bounded by its deadline, the queue-wait cap, and its context. Called
// with mu held; unlocks it.
func (c *Controller) admitSlow(ctx context.Context, deadline time.Time) error {
	if len(c.queue) >= c.cfg.QueueLimit {
		c.noteCapacityLocked(true)
		retry := c.estimateWaitLocked(len(c.queue) + 1)
		c.mu.Unlock()
		return c.shedErr(ReasonQueueFull, maxDuration(retry, minRetryAfter))
	}
	now := c.now()
	est := c.estimateWaitLocked(len(c.queue) + 1)
	maxWait := c.cfg.MaxQueueWait
	if !deadline.IsZero() {
		if remaining := deadline.Sub(now); remaining < maxWait {
			maxWait = remaining
		}
	}
	if est > maxWait {
		// Queuing this request would outlive its deadline (or the queue
		// cap): shedding now is strictly better than timing out later.
		c.noteCapacityLocked(true)
		c.mu.Unlock()
		return c.shedErr(ReasonDeadline, maxDuration(est, minRetryAfter))
	}
	w := &waiter{ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.queueG.Set(float64(len(c.queue)))
	c.mu.Unlock()

	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		c.mu.Lock()
		drained := w.drained
		c.mu.Unlock()
		if drained {
			return c.shedErr(ReasonDraining, minRetryAfter)
		}
		c.queueWaits.Observe(c.now().Sub(now).Seconds())
		c.admitted.Inc()
		return nil
	case <-ctx.Done():
		return c.abandon(w, now, ReasonCanceled)
	case <-timer.C:
		return c.abandon(w, now, ReasonDeadline)
	}
}

// abandon settles a waiter whose context or queue-wait budget fired. If
// a release granted the slot concurrently, the grant wins and the
// request proceeds (its own handler will observe the fired context).
func (c *Controller) abandon(w *waiter, enqueued time.Time, r Reason) error {
	c.mu.Lock()
	if w.granted {
		c.mu.Unlock()
		c.queueWaits.Observe(c.now().Sub(enqueued).Seconds())
		c.admitted.Inc()
		return nil
	}
	if w.drained {
		c.mu.Unlock()
		return c.shedErr(ReasonDraining, minRetryAfter)
	}
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	c.queueG.Set(float64(len(c.queue)))
	c.noteCapacityLocked(true)
	retry := c.estimateWaitLocked(len(c.queue) + 1)
	c.mu.Unlock()
	return c.shedErr(r, maxDuration(retry, minRetryAfter))
}

// Release returns an admitted request's slot, feeding its service
// latency to the AIMD limiter against the default target.
func (c *Controller) Release(latency time.Duration) {
	c.ReleaseWith(latency, 0)
}

// ReleaseWith is Release against a per-route latency target (0 means
// the configured default). The slot is handed directly to the oldest
// queued waiter when the limit allows, so a busy server never lets
// capacity idle while requests queue.
func (c *Controller) ReleaseWith(latency, target time.Duration) {
	if target <= 0 {
		target = c.cfg.Target
	}
	c.mu.Lock()
	c.observeLocked(latency, target)
	c.releaseSlotLocked()
	c.inflightG.Set(float64(c.inflight))
	c.queueG.Set(float64(len(c.queue)))
	c.mu.Unlock()
}

// observeLocked folds one observed service latency into the AIMD state.
// Callers hold mu.
func (c *Controller) observeLocked(latency, target time.Duration) {
	c.ewma = 0.8*c.ewma + 0.2*latency.Seconds()
	if latency <= target {
		c.credit++
		if c.credit >= c.limit {
			c.credit = 0
			if c.limit < float64(c.cfg.MaxInflight) {
				c.limit++
				c.limitG.Set(c.limit)
			}
		}
		return
	}
	now := c.now()
	cool := target
	if cool < 10*time.Millisecond {
		cool = 10 * time.Millisecond
	}
	if now.Sub(c.lastDecrease) < cool {
		return
	}
	c.lastDecrease = now
	c.credit = 0
	c.limit *= decreaseFactor
	if floor := float64(minInflight); c.limit < floor {
		c.limit = floor
	}
	c.limitG.Set(c.limit)
}

// releaseSlotLocked frees one slot: hand it to the oldest queued waiter
// when the limit allows, otherwise decrement inflight. Callers hold mu.
func (c *Controller) releaseSlotLocked() {
	if c.inflight <= c.limitInt() && len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = c.queue[1:]
		w.granted = true
		close(w.ready)
		return // slot transferred; inflight unchanged
	}
	c.inflight--
}

// BeginDrain flips the controller into drain mode: every queued waiter
// is woken and shed (the serving layer maps it to 503 + Retry-After),
// and every later Admit sheds the same way. Admitted requests are
// untouched — they complete and Release normally. Safe to call more
// than once.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	for _, w := range c.queue {
		w.drained = true
		close(w.ready)
	}
	c.queue = c.queue[:0]
	c.queueG.Set(0)
	c.mu.Unlock()
}

// BrownoutActive reports whether the capacity-shed rate over the
// sliding window is above the configured threshold (with hysteresis:
// once active, it stays active until the rate falls below half the
// threshold). Always false when BrownoutShedPct is 0.
func (c *Controller) BrownoutActive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.brown.rotate(c.now())
	c.refreshBrownoutLocked()
	return c.brown.active
}

// noteCapacityLocked records one capacity decision (admitted or
// capacity-shed) into the brownout window and refreshes the mode.
// Rate-limit sheds are per-client policing, not capacity exhaustion,
// and deliberately do not feed the window. Callers hold mu.
func (c *Controller) noteCapacityLocked(shed bool) {
	if c.cfg.BrownoutShedPct == 0 {
		return
	}
	c.brown.note(c.now(), shed)
	c.refreshBrownoutLocked()
}

// refreshBrownoutLocked recomputes the brownout gauge. Callers hold mu.
func (c *Controller) refreshBrownoutLocked() {
	if c.brown.active {
		c.brownoutG.Set(1)
	} else {
		c.brownoutG.Set(0)
	}
}

// State is a point-in-time snapshot of the controller, for tests and
// operator inspection (/debug/vars carries the same numbers via the
// metric gauges).
type State struct {
	Limit      float64
	Inflight   int
	QueueDepth int
	Draining   bool
	Brownout   bool
	Admitted   uint64
	Shed       uint64 // all reasons
}

// State returns a consistent snapshot of the controller.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.brown.rotate(c.now())
	c.refreshBrownoutLocked()
	s := State{
		Limit:      c.limit,
		Inflight:   c.inflight,
		QueueDepth: len(c.queue),
		Draining:   c.draining,
		Brownout:   c.brown.active,
		Admitted:   c.admitted.Value(),
	}
	for i := range c.shed {
		s.Shed += c.shed[i].Value()
	}
	return s
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
