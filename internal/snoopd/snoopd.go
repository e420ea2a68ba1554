// Package snoopd implements the snoopmva service: the JSON solve
// endpoints (POST /v1/solve, /v1/solvebest, /v1/sweep, /v1/compare), the
// NDJSON-streaming POST /v1/batch, Prometheus metrics at /metrics,
// liveness at /healthz and profiling at /debug/pprof, plus the same
// operations over the binary wire protocol (ServeWire). Every codec
// decodes a request into a BatchItem and runs it through one op path
// (core.go): admission, exec, then one failure projection. Request
// deadlines are wired straight into the solvers' contexts, so a client
// timeout (or disconnect) cancels the computation it was paying for, and
// the root package's failure taxonomy maps onto HTTP status codes (the
// wire carries the same codes, and a shed as a Backpressure frame):
//
//	ErrInvalidInput                              → 400
//	ErrNoConvergence, ErrDiverged, ErrStateExplosion → 422
//	ErrCanceled (deadline or disconnect)          → 504
//	admission shed                               → 429 (503 while draining)
//	anything else                                → 500
//
// The Server is an http.Handler; graceful shutdown (draining in-flight
// solves) is the enclosing http.Server's Shutdown, which cmd/snoopd wires
// to SIGINT/SIGTERM — after calling BeginDrain, which flips /healthz to
// 503 so health-checked routing stops sending new work to a worker that
// is about to refuse it.
package snoopd

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/obs"
	"snoopmva/internal/wire"
)

// Config configures a Server. The zero value serves the uncached solvers
// with metrics on obs.Default and no server-imposed deadlines.
type Config struct {
	// Registry receives the HTTP-layer metrics and the /metrics
	// exposition. Nil means obs.Default — which is also where the solver
	// libraries report, so the default wiring exposes everything.
	Registry *obs.Registry
	// Cache, when non-nil, serves every endpoint through the shared
	// CachedSolver (its counters are bridged into Registry under
	// cache="snoopd"). Nil serves the uncached package-level solvers.
	Cache *snoopmva.CachedSolver
	// DefaultTimeout is applied to requests that carry no timeout_ms.
	// Zero means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms. Zero means no cap.
	MaxTimeout time.Duration
	// Admission, when non-nil, gates every /v1/* endpoint through the
	// overload-protection controller: shed requests get 429 (503 while
	// draining) with a Retry-After hint, and above the brownout
	// threshold /v1/solvebest degrades to cache-hit-or-MVA-only instead
	// of rejecting. /healthz, /metrics and the debug surface are always
	// admitted. Nil serves everything unconditionally.
	Admission *admission.Controller
}

// Server is the snoopd HTTP handler. Construct with New.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	mux      *http.ServeMux
	adm      *admission.Controller
	solver   snoopmva.Solver // cfg.Cache when set, else snoopmva.Direct
	inflight *obs.Gauge
	// Wire-listener metrics, minted at construction (metricreg: families
	// at registration time, handlers only touch resolved series).
	wireConns    *obs.Counter
	wireActive   *obs.Gauge
	wireRequests map[wire.FrameType]*obs.Counter
	// draining flips once shutdown begins; /healthz then answers 503 so
	// load balancers and the campaign coordinator stop routing new work
	// here while in-flight solves drain.
	draining atomic.Bool
}

// New builds a Server from cfg and registers its routes and metrics.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		mux:      http.NewServeMux(),
		adm:      cfg.Admission,
		inflight: reg.Gauge("snoopmva_http_inflight_requests", "Requests currently being served."),
		solver:   snoopmva.Direct,
	}
	// A nil *CachedSolver stored in s.solver would be a non-nil Solver,
	// so the cache is chosen explicitly.
	if cfg.Cache != nil {
		cfg.Cache.RegisterMetrics(reg, "snoopd")
		s.solver = cfg.Cache
	}

	s.route("POST /v1/solve", s.admitted(opSolve, s.handleOp(opSolve)))
	s.route("POST /v1/solvebest", s.admitted(opSolveBest, s.handleOp(opSolveBest)))
	s.route("POST /v1/sweep", s.admitted(opSweep, s.handleOp(opSweep)))
	s.route("POST /v1/compare", s.admitted(opCompare, s.handleCompare))
	// Batch admits per point inside the handler, not per request.
	s.route("POST /v1/batch", s.handleBatch)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)

	s.wireConns = reg.Counter("snoopmva_wire_connections_total", "Binary wire-protocol connections accepted.")
	s.wireActive = reg.Gauge("snoopmva_wire_active_connections", "Binary wire-protocol connections currently open.")
	s.wireRequests = map[wire.FrameType]*obs.Counter{}
	for _, t := range []wire.FrameType{wire.TypeSolveReq, wire.TypeSolveBestReq, wire.TypeSweepReq} {
		s.wireRequests[t] = reg.Counter("snoopmva_wire_requests_total",
			"Binary wire-protocol requests received, by frame type.", obs.L("type", t.String())) //lint:allow metricreg the range is a fixed three-element frame-type list, a closed set
	}

	reg.PublishExpvar("snoopmva")
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusClasses is the closed label set for the requests counter: HTTP
// status classes rather than raw codes, so the family's cardinality is
// routes × 5 regardless of what codes handlers invent.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// route registers pattern with the standard instrumentation: an in-flight
// gauge, a per-route latency histogram, and a requests counter labeled by
// route and status class. All families are minted here, at registration
// time; the handler closure only increments resolved series (metricreg
// enforces this split).
func (s *Server) route(pattern string, h http.HandlerFunc) {
	lat := s.reg.Histogram("snoopmva_http_request_seconds",
		"Request latency by route.",
		obs.ExpBuckets(1e-5, 4, 10), obs.L("route", pattern))
	var requests [len(statusClasses)]*obs.Counter
	for i, class := range statusClasses {
		requests[i] = s.reg.Counter("snoopmva_http_requests_total",
			"Requests served, by route and status class.",
			obs.L("route", pattern), obs.L("code", class))
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Inc()
		defer s.inflight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		if i := sw.code/100 - 1; i >= 0 && i < len(requests) {
			requests[i].Inc()
		}
	})
}

// Admission wire conventions: clients identify themselves for per-client
// rate limiting with ClientIDHeader, and may carry their remaining
// deadline in DeadlineHeader (milliseconds) so the admission queue can
// shed a request that would outlive it instead of serving a dead one.
// The dispatch HTTP transport sets both.
const (
	ClientIDHeader = "X-Snoop-Client"
	DeadlineHeader = "X-Snoop-Deadline-Ms"
)

// admitted wraps a /v1 handler of kind k with the admission gate: shed
// requests are answered immediately with 429/503 + Retry-After and never
// reach the handler; admitted ones release their slot (with the observed
// service latency, against k's scaled target) when the handler returns.
func (s *Server) admitted(k opKind, h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	target := time.Duration(opScale[k]) * s.adm.Target()
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.adm.Admit(r.Context(), r.Header.Get(ClientIDHeader), admissionDeadline(r)); err != nil {
			writeError(w, err)
			return
		}
		start := time.Now()
		defer func() { s.adm.ReleaseWith(time.Since(start), target) }()
		h(w, r)
	}
}

// admissionDeadline extracts the request's remaining-deadline hint: the
// client-supplied DeadlineHeader if present (HTTP does not propagate the
// client's context deadline, so cooperating clients state it), else the
// server-side context deadline if one exists.
func admissionDeadline(r *http.Request) time.Time {
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Now().Add(msDuration(ms))
		}
	}
	if dl, ok := r.Context().Deadline(); ok {
		return dl
	}
	return time.Time{}
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// BeginDrain marks the server as draining: /healthz switches to 503 so
// health-checked routing (load balancers, the campaign coordinator's
// worker pool) stops sending new work, while the solve endpoints keep
// serving whatever arrives until the enclosing http.Server shuts down.
// With admission configured, queued-but-unadmitted requests are flushed
// with 503 + Retry-After immediately — they would only steal drain time
// from the admitted ones — and later arrivals shed the same way.
// cmd/snoopd calls this on SIGINT/SIGTERM before Shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.adm != nil {
		s.adm.BeginDrain()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
