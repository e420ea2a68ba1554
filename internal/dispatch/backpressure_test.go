package dispatch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
)

// TestBackpressureRequeuesWithoutBreakerTrips scripts a worker that
// answers its first three solves with 429-style backpressure, against a
// breaker threshold those three answers would trip if they were counted
// as failures. The run must complete (the breaker stayed closed), every
// shed must land in stats.Backpressure, and none in Redispatches.
func TestBackpressureRequeuesWithoutBreakerTrips(t *testing.T) {
	var calls atomic.Int32
	congested := &fakeTransport{addr: "fake://congested", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		if calls.Add(1) <= 3 {
			return snoopmva.Result{}, &BackpressureError{
				Addr: "fake://congested", Route: routeSolveBest,
				Code: "overloaded", RetryAfter: 10 * time.Millisecond,
			}
		}
		return localSolve(ctx, p, w, n, b)
	}}
	points := testGrid(t, 4)
	want := localReference(t, points)

	cfg := quickCfg([]Transport{congested})
	cfg.HealthInterval = -1
	cfg.BreakerThreshold = 2 // three fed failures would open this circuit
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	if got.Failed != 0 {
		t.Fatalf("failed = %d, want 0", got.Failed)
	}
	if stats.Backpressure != 3 {
		t.Errorf("backpressure = %d, want 3", stats.Backpressure)
	}
	if stats.Redispatches != 0 {
		t.Errorf("redispatches = %d, want 0: backpressure is not a transport failure", stats.Redispatches)
	}
	if len(stats.OpenWorkers) != 0 {
		t.Errorf("open workers = %v: backpressure must not feed the breaker", stats.OpenWorkers)
	}
}

// TestBackpressureShiftsLoadToUncongestedWorker runs a pool where one
// worker refuses everything with backpressure: the whole grid must
// complete on the other worker, with the congested one neither
// quarantined nor circuit-opened.
func TestBackpressureShiftsLoadToUncongestedWorker(t *testing.T) {
	// The healthy worker is gated on the congested one's first refusal, so
	// the fast in-process solver cannot drain the queue before the
	// congested worker has even been scheduled.
	shedOnce := make(chan struct{})
	var once sync.Once
	congested := &fakeTransport{addr: "fake://congested", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		once.Do(func() { close(shedOnce) })
		return snoopmva.Result{}, &BackpressureError{
			Addr: "fake://congested", Route: routeSolveBest,
			Code: "overloaded", RetryAfter: 20 * time.Millisecond,
		}
	}}
	healthy := &fakeTransport{addr: "fake://healthy", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		select {
		case <-shedOnce:
		case <-ctx.Done():
			return snoopmva.Result{}, &TransportError{Addr: "fake://healthy", Route: routeSolveBest, Err: ctx.Err()}
		}
		return localSolve(ctx, p, w, n, b)
	}}
	points := testGrid(t, 8)
	want := localReference(t, points)

	cfg := quickCfg([]Transport{congested, healthy})
	cfg.HealthInterval = -1
	cfg.BreakerThreshold = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	if got.Failed != 0 {
		t.Fatalf("failed = %d, want 0", got.Failed)
	}
	if stats.Backpressure == 0 {
		t.Error("expected backpressure from the congested worker")
	}
	if n := stats.WorkerCommits["fake://healthy"]; n != len(points) {
		t.Errorf("healthy worker committed %d points, want all %d", n, len(points))
	}
	if len(stats.OpenWorkers) != 0 {
		t.Errorf("open workers = %v: a congested worker is not a broken one", stats.OpenWorkers)
	}
}

// TestBackpressureExhaustsLimit pins the bound and its deterministic
// journal message: a point refused more than backpressureLimit (32) times
// is committed failed, so a permanently saturated pool cannot spin
// forever.
func TestBackpressureExhaustsLimit(t *testing.T) {
	congested := &fakeTransport{addr: "fake://congested", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		return snoopmva.Result{}, &BackpressureError{
			Addr: "fake://congested", Route: routeSolveBest,
			Code: "overloaded", RetryAfter: time.Millisecond,
		}
	}}
	cfg := quickCfg([]Transport{congested})
	cfg.HealthInterval = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), testGrid(t, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Failed != 1 {
		t.Fatalf("failed = %d, want 1", got.Failed)
	}
	const wantMsg = "dispatch: point 0: worker backpressure exhausted the requeue limit (32)"
	if got.Results[0].Err != wantMsg {
		t.Errorf("err = %q, want %q", got.Results[0].Err, wantMsg)
	}
	if stats.Backpressure != 33 {
		t.Errorf("backpressure = %d, want 33 (limit 32 + the exhausting attempt)", stats.Backpressure)
	}
}

// TestHTTPTransportBackpressureMapping pins the wire mapping: 429 and
// 503 become *BackpressureError — never *TransportError or *RemoteError —
// with the retry hint preferring the body's retry_after_ms over the
// Retry-After header.
func TestHTTPTransportBackpressureMapping(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		header    string // Retry-After header, "" to omit
		body      string
		wantCode  string
		wantAfter time.Duration
	}{
		{"admission shed with body hint", 429, "1",
			`{"error":"admission: request shed: queue_full","code":"overloaded","retry_after_ms":250}`,
			"overloaded", 250 * time.Millisecond},
		{"draining worker", 503, "1",
			`{"error":"admission: request shed: draining","code":"draining","retry_after_ms":100}`,
			"draining", 100 * time.Millisecond},
		{"rate limited", 429, "2",
			`{"error":"admission: request shed: rate_limit","code":"rate_limited","retry_after_ms":1800}`,
			"rate_limited", 1800 * time.Millisecond},
		{"proxy 503 with header only", 503, "2", `<html>backend unavailable`,
			"http_503", 2 * time.Second},
		{"bare 429", 429, "", ``, "http_429", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			tr := NewHTTPTransport(srv.URL, srv.Client())
			p, _ := snoopmva.ProtocolByName("Illinois")
			_, err := tr.SolveBest(context.Background(), p, snoopmva.AppendixA(5), 4, mvaOnly)
			var bp *BackpressureError
			if !errors.As(err, &bp) {
				t.Fatalf("err = %v (%T), want *BackpressureError", err, err)
			}
			if bp.Code != tc.wantCode || bp.RetryAfter != tc.wantAfter {
				t.Errorf("code/after = %s/%v, want %s/%v", bp.Code, bp.RetryAfter, tc.wantCode, tc.wantAfter)
			}
			var transport *TransportError
			var remote *RemoteError
			if errors.As(err, &transport) || errors.As(err, &remote) {
				t.Errorf("backpressure leaked into the failure taxonomy: %v", err)
			}
		})
	}
}

// TestChaosBrownoutWorkerGridCompletes is the overload chaos acceptance:
// one worker runs with a saturated admission controller already in
// brownout plus a per-client rate limit that sheds most dispatches, the
// other is healthy. The grid must complete byte-identically to the local
// reference (the MVA-only budgets make brownout a provenance no-op),
// with real 429 backpressure observed and zero breaker or quarantine
// action against the browned-out worker.
func TestChaosBrownoutWorkerGridCompletes(t *testing.T) {
	ctrl, err := admission.New(admission.Config{
		MaxInflight:        1,
		QueueLimit:         -1,
		RatePerClient:      20, // one token per 50ms: most dispatches shed as rate_limited 429s
		BurstPerClient:     1,
		BrownoutShedPct:    0.3,
		BrownoutMinSamples: 3,
		BrownoutWindow:     time.Minute,
		Registry:           obs.NewRegistry(),
		Name:               "chaos",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the controller into brownout before the run: hold the only
	// slot and shed capacity until the window trips.
	if err := ctrl.Admit(context.Background(), "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ctrl.Admit(context.Background(), "", time.Time{}); err == nil {
			t.Fatal("saturated controller admitted")
		}
	}
	ctrl.Release(0)
	if !ctrl.BrownoutActive() {
		t.Fatalf("brownout should be active before the run: %+v", ctrl.State())
	}

	// Force the overlap the backpressure assertion needs instead of
	// hoping two dispatches meet at the 1-slot limiter: every MVA solve
	// waits (via the SolveDelay hook) until the browned-out worker has
	// answered one solvebest while another is still in flight. The held
	// one owns the only admission slot, so the answered one can only be
	// a 429; the healthy worker's solves wait too, so the grid cannot
	// drain around the browned-out worker first.
	var inflight atomic.Int32
	overlapped := make(chan struct{})
	var overlapOnce sync.Once
	inner := snoopd.New(snoopd.Config{Registry: obs.NewRegistry(), Admission: ctrl})
	brownedOut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != routeSolveBest {
			inner.ServeHTTP(w, r)
			return
		}
		inflight.Add(1)
		inner.ServeHTTP(w, r)
		if inflight.Add(-1) > 0 {
			overlapOnce.Do(func() { close(overlapped) })
		}
	}))
	defer brownedOut.Close()
	healthy := newWorker(t)

	points := testGrid(t, 12)
	want := localReference(t, points)
	restore := faultinject.Activate(&faultinject.Set{
		SolveDelay: func(int) time.Duration {
			awaitOrBackstop(overlapped)
			return 0
		},
	})
	defer restore()

	cfg := quickCfg(transportsFor(brownedOut, healthy))
	cfg.MaxInflight = 2      // two concurrent dispatches per worker: guarantees contention at the 1-slot limiter
	cfg.BreakerThreshold = 2 // a couple of miscounted 429s would open this
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	if got.Failed != 0 {
		t.Fatalf("failed = %d, want 0", got.Failed)
	}
	for i, pr := range got.Results {
		if pr.Degraded {
			t.Errorf("point %d marked degraded: MVA-only budgets must pass through brownout untouched", i)
		}
	}
	if stats.Backpressure == 0 {
		t.Error("expected 429 backpressure from the browned-out worker")
	}
	if len(stats.OpenWorkers) != 0 {
		t.Errorf("open workers = %v: shedding under overload is not a failure", stats.OpenWorkers)
	}
	if st := ctrl.State(); st.Admitted == 0 || !st.Brownout {
		t.Errorf("browned-out worker should have served some points while shedding the rest: %+v", st)
	}
}
