package snoopd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"snoopmva"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/obs"
	"snoopmva/internal/wire"
)

// newTestServer builds a Server on a fresh registry so metric assertions
// are not polluted by other tests sharing obs.Default.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(cfg)
}

func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not ErrorResponse JSON: %v\n%s", err, w.Body.String())
	}
	return e
}

const solveBody = `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 10}`

func TestSolveSuccess(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/solve", solveBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var resp SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Result.N != 10 || resp.Result.Speedup <= 1 || resp.Result.Iterations < 1 {
		t.Fatalf("implausible result: %+v", resp.Result)
	}
	// The HTTP response must match the library bit-for-bit.
	want, err := snoopmva.Solve(snoopmva.Illinois(), snoopmva.AppendixA(snoopmva.Sharing5), 10)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Speedup != want.Speedup || resp.Result.R != want.R {
		t.Fatalf("served result diverges from library: got %+v want %+v", resp.Result, want)
	}
}

func TestSolveWithTimingOptionsAndParams(t *testing.T) {
	s := newTestServer(t, Config{})
	// Spell out the Appendix A 5% workload verbatim through params and a
	// non-default timing; it must solve (exact values are the library's
	// business — this pins the full wire surface end to end).
	base := snoopmva.AppendixA(snoopmva.Sharing5)
	params, err := json.Marshal(WorkloadParams{
		Tau: base.Tau, PPrivate: base.PPrivate, PSro: base.PSro, PSw: base.PSw,
		HPrivate: base.HPrivate, HSro: base.HSro, HSw: base.HSw,
		RPrivate: base.RPrivate, RSw: base.RSw,
		AmodPrivate: base.AmodPrivate, AmodSw: base.AmodSw,
		CsupplySro: base.CsupplySro, CsupplySw: base.CsupplySw,
		WbCsupply: base.WbCsupply, RepP: base.RepP, RepSw: base.RepSw,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"protocol": {"mods": [1,2,3]}, "workload": {"params": ` + string(params) + `},
		"n": 16, "timing": {"d_mem": 5, "block_size": 8, "t_block": 8},
		"options": {"tolerance": 1e-8}}`
	w := post(t, s, "/v1/solve", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
}

func TestSolveMalformedBodies(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := map[string]string{
		"not json":        `{`,
		"unknown field":   `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 10, "bogus": 1}`,
		"trailing data":   solveBody + `{"again": true}`,
		"no protocol":     `{"workload": {"appendix_a": 5}, "n": 10}`,
		"name and mods":   `{"protocol": {"name": "Illinois", "mods": [1]}, "workload": {"appendix_a": 5}, "n": 10}`,
		"unknown preset":  `{"protocol": {"name": "MESIF"}, "workload": {"appendix_a": 5}, "n": 10}`,
		"no workload":     `{"protocol": {"name": "Illinois"}, "n": 10}`,
		"bad sharing":     `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 7}, "n": 10}`,
		"stress+appendix": `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5, "stress": true}, "n": 10}`,
		"negative n":      `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": -3}`,
		"bad timeout":     `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 10, "timeout_ms": -1}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			w := post(t, s, "/v1/solve", body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != "invalid_input" || e.Error == "" {
				t.Fatalf("error = %+v", e)
			}
		})
	}
}

func TestSolveNoConvergenceMapsTo422(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 10,
		"options": {"max_iterations": 1}}`
	w := post(t, s, "/v1/solve", body)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Code != "no_convergence" {
		t.Fatalf("error = %+v", e)
	}
}

func TestSolveDeadlineMapsTo504(t *testing.T) {
	s := newTestServer(t, Config{})
	// An already-fired request context is how both an expired deadline and
	// a client disconnect reach the solver; it must surface as 504 via
	// ErrCanceled, not as a 500. The MVA loop checks ctx every 64
	// iterations and this configuration converges sooner, so stall
	// convergence to guarantee the solver reaches a cancellation check.
	restore := faultinject.Activate(&faultinject.Set{
		MVAStall: func(int) bool { return true },
	})
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(solveBody)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Code != "deadline_exceeded" {
		t.Fatalf("error = %+v", e)
	}
}

// TestSweepSuccessAndParallel: a sweep answers in request order, and its
// answers are bitwise per-size cold solves whether it runs in parallel or
// not and whether the server has a solve cache or not.
func TestSweepSuccessAndParallel(t *testing.T) {
	ns := []int{1, 2, 4, 8, 16, 32}
	want := make([]snoopmva.Result, len(ns))
	for i, n := range ns {
		r, err := snoopmva.Solve(snoopmva.Berkeley(), snoopmva.AppendixA(snoopmva.Sharing5), n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, cached := range []bool{false, true} {
		cfg := Config{}
		if cached {
			cfg.Cache = snoopmva.NewCachedSolver(0)
		}
		s := newTestServer(t, cfg)
		for _, parallel := range []bool{false, true} {
			body := fmt.Sprintf(`{"protocol": {"name": "Berkeley"}, "workload": {"appendix_a": 5}, "ns": [1, 2, 4, 8, 16, 32], "parallel": %t}`, parallel)
			w := post(t, s, "/v1/sweep", body)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
			}
			var resp SweepResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(ns) {
				t.Fatalf("got %d results, want %d", len(resp.Results), len(ns))
			}
			for i := range ns {
				if resp.Results[i] != want[i] {
					t.Errorf("cache %t, parallel %t: results[%d] = %+v, want the cold solve %+v", cached, parallel, i, resp.Results[i], want[i])
				}
			}
		}
	}
}

// TestSweepOverMaxPoints: the serving layer bounds a JSON sweep's sizes
// exactly as the wire codec does.
func TestSweepOverMaxPoints(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, count := range []int{wire.MaxBatchPoints, wire.MaxBatchPoints + 1} {
		ns := make([]string, count)
		for i := range ns {
			ns[i] = strconv.Itoa(i%64 + 1)
		}
		w := post(t, s, "/v1/sweep", `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "ns": [`+strings.Join(ns, ",")+`]}`)
		if count <= wire.MaxBatchPoints {
			if w.Code != http.StatusOK {
				t.Fatalf("%d sizes: status = %d, body %s", count, w.Code, w.Body.String())
			}
			continue
		}
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%d sizes: status = %d, want 400", count, w.Code)
		}
		if e := decodeError(t, w); !strings.Contains(e.Error, strconv.Itoa(wire.MaxBatchPoints)) {
			t.Fatalf("%d sizes: error %+v does not name the bound", count, e)
		}
	}
}

func TestSweepEmptyNsIs400(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/sweep", `{"protocol": {"name": "Berkeley"}, "workload": {"appendix_a": 5}, "ns": []}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
}

func TestCompareDefaultsToAllPresets(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/compare", `{"workload": {"appendix_a": 5}, "n": 10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var resp CompareResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := len(snoopmva.Protocols()); len(resp.Results) != want {
		t.Fatalf("got %d entries, want %d (every preset)", len(resp.Results), want)
	}
	for _, e := range resp.Results {
		if e.Protocol == "" || e.Result.Speedup <= 0 {
			t.Fatalf("implausible entry: %+v", e)
		}
	}
}

func TestCompareNamedSubset(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/compare", `{"protocols": [{"name": "Illinois"}, {"mods": [2, 3]}],
		"workload": {"appendix_a": 20}, "n": 8}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var resp CompareResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || !strings.HasPrefix(resp.Results[0].Protocol, "Illinois") {
		t.Fatalf("entries: %+v", resp.Results)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status = %d, want 405", w.Code)
	}
}

// TestMetricsExposition drives one successful and one failed solve and
// pins the exposition lines the HTTP layer must emit: the requests
// counter split by route and code, the latency histogram's count, the
// format's HELP/TYPE headers and content type.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	if w := post(t, s, "/v1/solve", solveBody); w.Code != http.StatusOK {
		t.Fatalf("solve: %d", w.Code)
	}
	if w := post(t, s, "/v1/solve", `{`); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed solve: %d", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# HELP snoopmva_http_requests_total Requests served, by route and status class.\n",
		"# TYPE snoopmva_http_requests_total counter\n",
		`snoopmva_http_requests_total{code="2xx",route="POST /v1/solve"} 1` + "\n",
		`snoopmva_http_requests_total{code="4xx",route="POST /v1/solve"} 1` + "\n",
		// Families for every status class exist from registration time,
		// even before a request of that class has been served.
		`snoopmva_http_requests_total{code="5xx",route="POST /v1/solve"} 0` + "\n",
		"# TYPE snoopmva_http_request_seconds histogram\n",
		`snoopmva_http_request_seconds_count{route="POST /v1/solve"} 2` + "\n",
		"# TYPE snoopmva_http_inflight_requests gauge\n",
		// The /metrics request itself is in flight while it renders.
		"snoopmva_http_inflight_requests 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, body)
		}
	}
}

// TestCachedServerSharesSolves pins the shared-CachedSolver wiring: a
// repeated identical solve is a cache hit, visible through the bridged
// cache gauges on /metrics.
func TestCachedServerSharesSolves(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, Cache: snoopmva.NewCachedSolver(64)})
	for i := 0; i < 3; i++ {
		if w := post(t, s, "/v1/solve", solveBody); w.Code != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		`snoopmva_solvecache_hits_total{cache="snoopd"} 2` + "\n",
		`snoopmva_solvecache_misses_total{cache="snoopd"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, body)
		}
	}
}

// TestCachedServerMatchesUncached pins that the server's one Solver
// choice is invisible on the wire: a cached and an uncached server
// answer /v1/compare and the parallel /v1/sweep with byte-identical
// status and body, successes and failures alike, and the cached server
// again once its entries are resident.
func TestCachedServerMatchesUncached(t *testing.T) {
	plain := newTestServer(t, Config{})
	cached := newTestServer(t, Config{Cache: snoopmva.NewCachedSolver(0)})
	for _, tc := range []struct{ path, body string }{
		{"/v1/compare", `{"workload": {"appendix_a": 5}, "n": 10}`},
		{"/v1/compare", `{"protocols": [{"name": "Illinois"}, {"mods": [9]}, {"name": "Dragon"}, {"mods": [7]}],
			"workload": {"appendix_a": 20}, "n": 8}`},
		{"/v1/sweep", `{"protocol": {"name": "Berkeley"}, "workload": {"appendix_a": 5}, "ns": [1, 2, 4, 8, 16, 32], "parallel": true}`},
		{"/v1/sweep", `{"protocol": {"name": "Berkeley"}, "workload": {"appendix_a": 5}, "ns": [4, 0, -1], "parallel": true}`},
	} {
		want := post(t, plain, tc.path, tc.body)
		for _, pass := range []string{"cold", "resident"} {
			got := post(t, cached, tc.path, tc.body)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s %s (%s cache): cached %d %s\nuncached %d %s",
					tc.path, tc.body, pass, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
}

// TestPprofIndex confirms the profiling surface is mounted.
func TestPprofIndex(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d", w.Code)
	}
}

// TestGracefulShutdownDrainsInflight starts a real listener, parks a
// request inside a handler, calls Shutdown, and verifies (a) Shutdown
// waits for the in-flight request, (b) the request completes with 200.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	// Hold the solve hostage via a request deadline long enough for the
	// shutdown to start first: use a sweep large enough to take a moment.
	release := make(chan struct{})
	entered := make(chan struct{})
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			close(entered)
			<-release
		}
		s.ServeHTTP(w, r)
	})
	ts.Config.Handler = wrapped

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(solveBody))
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	default:
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

func TestSolveBestSuccessMatchesLibrary(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"protocol": {"name": "Dragon"}, "workload": {"appendix_a": 5}, "n": 8,
		"budget": {"max_states": -1, "sim_cycles": -1}}`
	w := post(t, s, "/v1/solvebest", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var resp ResultJSON
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := snoopmva.SolveBest(context.Background(), snoopmva.Dragon(),
		snoopmva.AppendixA(snoopmva.Sharing5), 8, snoopmva.Budget{MaxStates: -1, SimCycles: -1})
	if err != nil {
		t.Fatal(err)
	}
	if resp != want {
		t.Fatalf("served answer diverges from library: got %+v want %+v", resp, want)
	}
	if resp.Method != snoopmva.MethodMVA || resp.Degraded {
		t.Fatalf("MVA-only budget should land on a non-degraded mva result: %+v", resp)
	}
}

func TestSolveBestInvalidInputs(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := map[string]string{
		"no protocol":   `{"workload": {"appendix_a": 5}, "n": 4}`,
		"bad n":         `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 0}`,
		"unknown field": `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 4, "budgets": {}}`,
	}
	for name, body := range cases {
		w := post(t, s, "/v1/solvebest", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, w.Code, w.Body.String())
		}
	}
}

func TestSpecHelpersRoundTrip(t *testing.T) {
	// Every named preset, an anonymous mod set and the unnamed base
	// protocol must survive both encodings the dispatch transports use:
	// a JSON body and a binary frame.
	protos := append(snoopmva.Protocols(), snoopmva.WithMods(1, 3), snoopmva.WithMods())
	w := snoopmva.AppendixA(snoopmva.Sharing20)
	b := snoopmva.Budget{MaxStates: -1, SimCycles: 50000, Seed: 7}
	for _, p := range protos {
		req := SolveBestRequest{Protocol: SpecForProtocol(p), Workload: SpecForWorkload(w), N: 4, Budget: SpecForBudget(b)}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON := wireRequest(t, "/v1/solvebest", string(body)).(*SolveBestRequest)
		_, viaWire, err := wire.DecodeSolveBestRequest(wire.AppendSolveBestRequest(nil, 1, &req))
		if err != nil {
			t.Fatalf("%s: wire decode: %v", p, err)
		}
		for via, got := range map[string]*SolveBestRequest{"json": viaJSON, "wire": &viaWire} {
			gp, err := resolveProtocol(got.Protocol)
			if err != nil {
				t.Fatalf("%s via %s: resolve: %v", p, via, err)
			}
			if !slices.Equal(gp.Mods(), p.Mods()) || (p.Name() != "" && gp.String() != p.String()) {
				t.Fatalf("protocol round-trip via %s: got %s want %s", via, gp, p)
			}
			if gw, err := resolveWorkload(got.Workload); err != nil || gw != w {
				t.Fatalf("workload round-trip via %s: got %+v, %v want %+v", via, gw, err, w)
			}
			if gb := resolveBudget(got.Budget); gb != b {
				t.Fatalf("budget round-trip via %s: got %+v want %+v", via, gb, b)
			}
		}
	}
	if SpecForBudget(snoopmva.Budget{}) != nil {
		t.Fatal("zero budget should travel as an omitted field")
	}
}

func TestHealthzDrainingReturns503(t *testing.T) {
	s := newTestServer(t, Config{})
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return w
	}
	if w := get(); w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ok" {
		t.Fatalf("pre-drain healthz: %d %q", w.Code, w.Body.String())
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() should report true after BeginDrain")
	}
	if w := get(); w.Code != http.StatusServiceUnavailable || strings.TrimSpace(w.Body.String()) != "draining" {
		t.Fatalf("draining healthz: %d %q, want 503 draining", w.Code, w.Body.String())
	}
	// The solve endpoints keep serving while draining: work already routed
	// here must complete, only health-checked routing of new work stops.
	if w := post(t, s, "/v1/solve", solveBody); w.Code != http.StatusOK {
		t.Fatalf("solve while draining: %d, want 200", w.Code)
	}
}
