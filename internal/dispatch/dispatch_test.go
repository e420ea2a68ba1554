package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
)

// mvaOnly skips the GTPN and simulator stages, so every point solves in
// microseconds through the deterministic MVA model.
var mvaOnly = snoopmva.Budget{MaxStates: -1, SimCycles: -1}

// testGrid builds a small deterministic grid of up to max points.
func testGrid(t *testing.T, max int) []snoopmva.CampaignPoint {
	t.Helper()
	var pts []snoopmva.CampaignPoint
	for _, name := range []string{"Illinois", "Write-Once"} {
		p, ok := snoopmva.ProtocolByName(name)
		if !ok {
			t.Fatalf("unknown protocol %q", name)
		}
		for _, sharing := range []snoopmva.Sharing{5, 20} {
			w := snoopmva.AppendixA(sharing)
			for n := 2; n <= 12; n += 2 {
				if len(pts) == max {
					return pts
				}
				pts = append(pts, snoopmva.CampaignPoint{Protocol: p, Workload: w, N: n, Budget: mvaOnly})
			}
		}
	}
	return pts
}

// localReference runs the grid through the local single-process runner,
// the ground truth every distributed result set must equal.
func localReference(t *testing.T, points []snoopmva.CampaignPoint) snoopmva.CampaignResult {
	t.Helper()
	res, err := snoopmva.RunCampaign(context.Background(), snoopmva.CampaignSpec{
		Points:           points,
		Workers:          1,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	return res
}

// assertSameResults compares two result sets point for point, ignoring
// the per-run Resumed flag.
func assertSameResults(t *testing.T, want, got snoopmva.CampaignResult) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("result count: want %d, got %d", len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		w.Resumed, g.Resumed = false, false
		if !reflect.DeepEqual(w, g) {
			t.Errorf("point %d: want %+v, got %+v", i, w, g)
		}
	}
}

// newWorker starts an in-process snoopd worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(snoopd.New(snoopd.Config{Registry: obs.NewRegistry()}))
	t.Cleanup(srv.Close)
	return srv
}

func transportsFor(servers ...*httptest.Server) []Transport {
	ts := make([]Transport, len(servers))
	for i, s := range servers {
		ts[i] = NewHTTPTransport(s.URL, s.Client())
	}
	return ts
}

// quickCfg tightens the health and point timing so tests finish fast.
func quickCfg(ts []Transport) Config {
	return Config{
		Transports:     ts,
		HealthInterval: 20 * time.Millisecond,
		PointTimeout:   5 * time.Second,
		StallTimeout:   30 * time.Second,
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	points := testGrid(t, 20)
	want := localReference(t, points)

	ts := transportsFor(newWorker(t), newWorker(t), newWorker(t))
	c, err := New(quickCfg(ts))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	if got.Computed != len(points) || got.Resumed != 0 {
		t.Errorf("computed/resumed = %d/%d, want %d/0", got.Computed, got.Resumed, len(points))
	}
	if stats.Dispatches < len(points) {
		t.Errorf("dispatches = %d, want >= %d", stats.Dispatches, len(points))
	}
	total := 0
	for _, n := range stats.WorkerCommits {
		total += n
	}
	if total != len(points) {
		t.Errorf("worker commits sum to %d, want %d", total, len(points))
	}
}

func TestNewRejectsEmptyPool(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, snoopmva.ErrInvalidInput) {
		t.Fatalf("New with no transports: err = %v, want ErrInvalidInput", err)
	}
}

func TestNewRejectsNegativeCounts(t *testing.T) {
	ts := []Transport{&fakeTransport{addr: "fake://w", solve: localSolve}}
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"MaxInflight", Config{Transports: ts, MaxInflight: -1}},
		{"QuarantineAfter", Config{Transports: ts, QuarantineAfter: -1}},
	} {
		_, err := New(tc.cfg)
		if !errors.Is(err, snoopmva.ErrInvalidInput) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("New with negative %s: err = %v, want ErrInvalidInput naming the field", tc.field, err)
		}
	}
}

func TestRunRejectsEmptyGrid(t *testing.T) {
	c, err := New(quickCfg(transportsFor(newWorker(t))))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c.Run(context.Background(), nil); !errors.Is(err, snoopmva.ErrInvalidInput) {
		t.Fatalf("Run with no points: err = %v, want ErrInvalidInput", err)
	}
}

// fakeTransport scripts transport behavior the network can't produce on
// demand.
type fakeTransport struct {
	addr   string
	solve  func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error)
	health func(ctx context.Context) error
}

func (f *fakeTransport) SolveBest(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
	return f.solve(ctx, p, w, n, b)
}

func (f *fakeTransport) Healthz(ctx context.Context) error {
	if f.health != nil {
		return f.health(ctx)
	}
	return nil
}

func (f *fakeTransport) Addr() string { return f.addr }

// localSolve answers like a healthy worker, by running the deterministic
// solver in-process.
func localSolve(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
	return snoopmva.SolveBest(ctx, p, w, n, b)
}

func TestTransportFailuresExhaustRequeueLimit(t *testing.T) {
	dead := func(addr string) *fakeTransport {
		return &fakeTransport{addr: addr, solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
			return snoopmva.Result{}, &TransportError{Addr: addr, Route: routeSolveBest, Err: errors.New("connection refused")}
		}}
	}
	points := testGrid(t, 3)
	cfg := quickCfg([]Transport{dead("fake://a"), dead("fake://b")})
	cfg.BreakerThreshold = -1 // isolate the requeue path from the breaker
	cfg.HealthInterval = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != len(points) {
		t.Fatalf("failed = %d, want %d", res.Failed, len(points))
	}
	for i, pr := range res.Results {
		want := fmt.Sprintf("dispatch: point %d: transport failures exhausted the requeue limit (8)", i)
		if pr.Err != want {
			t.Errorf("point %d err = %q, want %q", i, pr.Err, want)
		}
	}
	if stats.Redispatches == 0 {
		t.Error("expected redispatches after transport failures")
	}
	// Each point is sent once and re-sent 8 times before it fails.
	if want := len(points) * 9; stats.Dispatches != want || stats.Redispatches != len(points)*8 {
		t.Errorf("dispatches/redispatches = %d/%d, want %d/%d", stats.Dispatches, stats.Redispatches, want, len(points)*8)
	}
}

func TestStragglerSpeculation(t *testing.T) {
	points := testGrid(t, 8)
	want := localReference(t, points)

	// The first solve request of the run — on whichever worker it lands —
	// hangs until canceled. The other worker drains the queue, and once
	// it has enough completed samples the coordinator must replicate the
	// stuck point onto it and win the race there.
	var requests atomic.Int32
	hangFirst := func(addr string) *fakeTransport {
		return &fakeTransport{addr: addr, solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
			if requests.Add(1) == 1 {
				<-ctx.Done()
				return snoopmva.Result{}, &TransportError{Addr: addr, Route: routeSolveBest, Err: ctx.Err()}
			}
			return localSolve(ctx, p, w, n, b)
		}}
	}
	a, b := hangFirst("fake://a"), hangFirst("fake://b")
	cfg := quickCfg([]Transport{a, b})
	cfg.HealthInterval = -1
	cfg.PointTimeout = 0 // only speculation can resolve the stuck point
	cfg.StallTimeout = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	if stats.Speculative == 0 {
		t.Error("expected at least one speculative replica")
	}
}

func TestRemoteSolverFailureCommitsAsFailedPoint(t *testing.T) {
	// An invalid point (N < 1) fails authoritatively on the worker; the
	// coordinator must commit it as a failed point with the worker's own
	// message, exactly like the local runner does.
	points := testGrid(t, 2)
	points[1].N = 0
	want := localReference(t, points)

	ts := transportsFor(newWorker(t), newWorker(t))
	c, err := New(quickCfg(ts))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, _, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Failed != 1 || got.Results[1].Err == "" {
		t.Fatalf("expected point 1 to fail; got %+v", got.Results[1])
	}
	assertSameResults(t, want, got)
}

func TestRunCanceled(t *testing.T) {
	hang := &fakeTransport{addr: "fake://hang", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		<-ctx.Done()
		return snoopmva.Result{}, &TransportError{Addr: "fake://hang", Route: routeSolveBest, Err: ctx.Err()}
	}}
	cfg := quickCfg([]Transport{hang})
	cfg.HealthInterval = -1
	cfg.PointTimeout = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := c.Run(ctx, testGrid(t, 2)); !errors.Is(err, snoopmva.ErrCanceled) {
		t.Fatalf("Run under canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestRunLogsWhileWorkersDequeue runs a grid with Logf set, so under -race
// the start-of-run log line is checked against workers that are already
// dequeuing points.
func TestRunLogsWhileWorkersDequeue(t *testing.T) {
	points := testGrid(t, 12)
	want := localReference(t, points)
	cfg := quickCfg([]Transport{
		&fakeTransport{addr: "fake://a", solve: localSolve},
		&fakeTransport{addr: "fake://b", solve: localSolve},
	})
	cfg.HealthInterval = -1
	cfg.MaxInflight = 4
	var (
		mu    sync.Mutex
		lines []string
	)
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, _, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	mu.Lock()
	defer mu.Unlock()
	head := fmt.Sprintf("dispatch: %d points across 2 workers (8 slots)", len(points))
	if len(lines) == 0 || lines[0] != head {
		t.Fatalf("log lines %q, want the first to be %q", lines, head)
	}
}

func TestStallWatchdog(t *testing.T) {
	hang := &fakeTransport{addr: "fake://hang", solve: func(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
		<-ctx.Done()
		return snoopmva.Result{}, &TransportError{Addr: "fake://hang", Route: routeSolveBest, Err: ctx.Err()}
	}}
	cfg := quickCfg([]Transport{hang})
	cfg.HealthInterval = -1
	cfg.PointTimeout = 0
	cfg.StallTimeout = 60 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c.Run(context.Background(), testGrid(t, 2)); !errors.Is(err, ErrStalled) {
		t.Fatalf("Run against a wedged worker: err = %v, want ErrStalled", err)
	}
}

func TestRecordProbeQuarantineAndReadmission(t *testing.T) {
	ts := []Transport{&fakeTransport{addr: "fake://w", solve: localSolve}}
	cfg := quickCfg(ts)
	cfg.QuarantineAfter = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := c.workers[0]
	boom := errors.New("probe failed")

	for i := range 2 {
		c.recordProbe(w, boom)
		if w.quarantined {
			t.Fatalf("quarantined after %d failures, want 3", i+1)
		}
	}
	c.recordProbe(w, boom)
	if !w.quarantined {
		t.Fatal("not quarantined after 3 consecutive probe failures")
	}
	// Open the circuit too, so readmission's breaker reset is observable.
	for range c.cfg.BreakerThreshold {
		c.breaker.Failure(w.t.Addr())
	}
	if !c.breaker.Open(w.t.Addr()) {
		t.Fatal("breaker should be open")
	}

	c.recordProbe(w, nil)
	if !w.quarantined {
		t.Fatal("readmitted after a single probe success, want 2")
	}
	c.recordProbe(w, nil)
	if w.quarantined {
		t.Fatal("still quarantined after 2 consecutive probe successes")
	}
	if c.breaker.Open(w.t.Addr()) {
		t.Error("readmission should close the worker's circuit")
	}
	if c.stats.Quarantined != 1 || c.stats.Readmitted != 1 {
		t.Errorf("stats quarantined/readmitted = %d/%d, want 1/1", c.stats.Quarantined, c.stats.Readmitted)
	}

	// A failure streak broken by one success must not quarantine.
	c.recordProbe(w, boom)
	c.recordProbe(w, boom)
	c.recordProbe(w, nil)
	c.recordProbe(w, boom)
	if w.quarantined {
		t.Error("non-consecutive probe failures must not quarantine")
	}
}

func TestHTTPTransportErrorMapping(t *testing.T) {
	cases := []struct {
		name     string
		status   int
		body     string
		sentinel error
		remote   bool
	}{
		{"invalid input", 400, `{"error":"bad point","code":"invalid_input"}`, snoopmva.ErrInvalidInput, true},
		{"no convergence", 422, `{"error":"mva: no convergence","code":"no_convergence"}`, snoopmva.ErrNoConvergence, true},
		{"diverged", 422, `{"error":"mva: diverged","code":"diverged"}`, snoopmva.ErrDiverged, true},
		{"state explosion", 422, `{"error":"petri: boom","code":"state_explosion"}`, snoopmva.ErrStateExplosion, true},
		{"deadline", 504, `{"error":"deadline","code":"deadline_exceeded"}`, nil, false},
		{"internal", 500, `{"error":"oops","code":"internal"}`, nil, false},
		{"garbage body", 502, `<html>gateway`, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			tr := NewHTTPTransport(srv.URL, srv.Client())
			p, _ := snoopmva.ProtocolByName("Illinois")
			_, err := tr.SolveBest(context.Background(), p, snoopmva.AppendixA(5), 4, mvaOnly)
			if err == nil {
				t.Fatal("expected an error")
			}
			var remote *RemoteError
			if got := errors.As(err, &remote); got != tc.remote {
				t.Fatalf("RemoteError = %v, want %v (err: %v)", got, tc.remote, err)
			}
			var transport *TransportError
			if got := errors.As(err, &transport); got != !tc.remote {
				t.Fatalf("TransportError = %v, want %v (err: %v)", got, !tc.remote, err)
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			if tc.remote && err.Error() != mustJSONField(tc.body) {
				t.Errorf("remote message %q, want the worker text %q", err.Error(), mustJSONField(tc.body))
			}
		})
	}
}

// mustJSONField extracts the "error" field of a canned ErrorResponse.
func mustJSONField(body string) string {
	start := strings.Index(body, `"error":"`) + len(`"error":"`)
	rest := body[start:]
	return rest[:strings.Index(rest, `"`)]
}

func TestHTTPTransportHealthz(t *testing.T) {
	srv := newWorker(t)
	tr := NewHTTPTransport(srv.URL+"/", srv.Client()) // trailing slash tolerated
	if err := tr.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz on a live worker: %v", err)
	}
	srv.Close()
	if err := tr.Healthz(context.Background()); err == nil {
		t.Fatal("Healthz on a closed worker should fail")
	}
}
