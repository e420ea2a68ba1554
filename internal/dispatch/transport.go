package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"snoopmva"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/snoopd"
)

// Routes of the snoopd worker API the coordinator exercises.
const (
	routeSolveBest = "/v1/solvebest"
	routeHealthz   = "/healthz"
)

// maxErrorBody bounds how much of a worker error response is read; a
// legitimate ErrorResponse is well under a kilobyte.
const maxErrorBody = 1 << 16

// Transport is one worker as the coordinator sees it: a way to run one
// grid point and a way to ask whether the worker is healthy. The
// production implementation is HTTPTransport over snoopd's JSON API;
// tests substitute in-process fakes to script failure sequences the
// network layer can't produce on demand.
type Transport interface {
	// SolveBest runs one grid point on the worker. It returns either the
	// worker's answer (success or a *RemoteError carrying the solver's
	// own failure — both authoritative and safe to commit), or a
	// *TransportError meaning the answer never arrived and the point is
	// still unresolved.
	SolveBest(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error)
	// Healthz probes the worker's liveness endpoint; nil means healthy
	// and accepting work (a draining snoopd answers 503, which reports
	// as an error here).
	Healthz(ctx context.Context) error
	// Addr identifies the worker in logs, stats, and breaker keys.
	Addr() string
}

// TransportError reports a request that failed without an authoritative
// answer from the worker: connection refused or reset, an injected
// partition, a malformed or truncated response, a worker-side timeout or
// internal error. The point's outcome is unknown, so the coordinator
// retries it elsewhere rather than committing a failure.
type TransportError struct {
	Addr  string
	Route string
	Err   error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("dispatch: worker %s: %s: %v", e.Addr, e.Route, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// BackpressureError reports a worker that answered "not now": an
// admission shed (429) or a drain refusal (503). Unlike a
// *TransportError the worker is alive and explicit about its state, so
// the coordinator must NOT feed the circuit breaker — quarantining a
// worker for telling the truth about its load converts a local overload
// into a cluster-wide one (and a rolling restart into a quarantine
// storm). The point is requeued with the worker's own Retry-After delay
// honored, and the worker is skipped until the delay passes. Err is the
// transport's plain description of the refusal.
type BackpressureError struct {
	Addr       string
	Route      string
	Code       string // wire error code ("overloaded", "rate_limited", "draining")
	RetryAfter time.Duration
	Err        error
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("dispatch: worker %s: %s: backpressure (%s), retry after %v", e.Addr, e.Route, e.Code, e.RetryAfter)
}

func (e *BackpressureError) Unwrap() error { return e.Err }

// RemoteError is a worker's authoritative solver failure: the worker was
// reachable and answered, the model itself failed on this point. Msg is
// the worker's error text verbatim — the solvers are deterministic, so
// every worker produces the same text for the same point, which keeps
// journaled failures identical across runs and worker sets. The sentinel
// chain is reconstructed from the wire code so errors.Is sees the same
// taxonomy as an in-process solve.
type RemoteError struct {
	Code     string // wire error code ("no_convergence", "diverged", …)
	Msg      string
	sentinel error
}

func (e *RemoteError) Error() string { return e.Msg }

func (e *RemoteError) Unwrap() error { return e.sentinel }

// permanentSentinel maps a wire error code onto the root sentinel it
// stands for, for codes that mean "the worker answered: this point
// fails". Codes outside this map (deadline_exceeded, internal, anything
// unknown) are transport-level: the answer is in doubt and the point is
// retried.
func permanentSentinel(code string) (error, bool) {
	switch code {
	case "invalid_input":
		return snoopmva.ErrInvalidInput, true
	case "no_convergence":
		return snoopmva.ErrNoConvergence, true
	case "diverged":
		return snoopmva.ErrDiverged, true
	case "state_explosion":
		return snoopmva.ErrStateExplosion, true
	}
	return nil, false
}

// HTTPTransport speaks snoopd's JSON API. Construct with NewHTTPTransport.
type HTTPTransport struct {
	base   string
	client *http.Client
	// ClientID is sent as the worker's per-client rate-limiting identity
	// (snoopd.ClientIDHeader) on every request. Defaults to "dispatch";
	// set it before first use when several coordinators share a pool and
	// should be policed separately.
	ClientID string
}

// NewHTTPTransport returns a Transport for the snoopd worker at base
// (e.g. "http://127.0.0.1:8080"; a trailing slash is tolerated). A nil
// client uses http.DefaultClient; per-request deadlines come from the
// caller's context, so the coordinator's PointTimeout applies without a
// client-level timeout.
func NewHTTPTransport(base string, client *http.Client) *HTTPTransport {
	base = strings.TrimRight(base, "/")
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPTransport{base: base, client: client, ClientID: "dispatch"}
}

// Addr implements Transport.
func (t *HTTPTransport) Addr() string { return t.base }

// fault consults the process-global HTTPFault hook, sleeping out an
// injected link delay (interruptibly) and converting an injected drop
// into a *TransportError, exactly as a real slow or partitioned link
// would surface.
func (t *HTTPTransport) fault(ctx context.Context, route string) error {
	h := faultinject.Hooks()
	if h == nil || h.HTTPFault == nil {
		return nil
	}
	delay, ferr := h.HTTPFault(t.base, route)
	if delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return &TransportError{Addr: t.base, Route: route, Err: ctx.Err()}
		case <-timer.C:
		}
	}
	if ferr != nil {
		return &TransportError{Addr: t.base, Route: route, Err: ferr}
	}
	return nil
}

// SolveBest implements Transport over POST /v1/solvebest.
func (t *HTTPTransport) SolveBest(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
	req := snoopd.SolveBestRequest{
		Protocol: snoopd.SpecForProtocol(p),
		Workload: snoopd.SpecForWorkload(w),
		N:        n,
		Budget:   snoopd.SpecForBudget(b),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest, Err: err}
	}
	if err := t.fault(ctx, routeSolveBest); err != nil {
		return snoopmva.Result{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+routeSolveBest, bytes.NewReader(body))
	if err != nil {
		return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest, Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if t.ClientID != "" {
		hreq.Header.Set(snoopd.ClientIDHeader, t.ClientID)
	}
	// Tell the worker's admission queue how much deadline is left, so a
	// request that would expire waiting is shed up front instead of
	// burning worker capacity on an answer nobody will receive.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hreq.Header.Set(snoopd.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := t.client.Do(hreq)
	if err != nil {
		return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var ok snoopmva.Result
		dec := json.NewDecoder(resp.Body)
		if derr := dec.Decode(&ok); derr != nil {
			return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest,
				Err: fmt.Errorf("decoding 200 response: %w", derr)}
		}
		return ok, nil
	}
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	if rerr != nil {
		return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest,
			Err: fmt.Errorf("http %d: reading error body: %w", resp.StatusCode, rerr)}
	}
	var we snoopd.ErrorResponse
	derr := json.Unmarshal(raw, &we)
	// 429 and 503 are backpressure whatever the body looks like: an
	// admission shed, a draining worker, or a fronting proxy refusing —
	// in every case the worker set is congested, not broken.
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return snoopmva.Result{}, t.backpressure(resp, routeSolveBest, we)
	}
	if derr != nil || we.Error == "" {
		return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest,
			Err: fmt.Errorf("http %d: %s", resp.StatusCode, truncate(raw, 200))}
	}
	if sentinel, ok := permanentSentinel(we.Code); ok {
		return snoopmva.Result{}, &RemoteError{Code: we.Code, Msg: we.Error, sentinel: sentinel}
	}
	return snoopmva.Result{}, &TransportError{Addr: t.base, Route: routeSolveBest,
		Err: fmt.Errorf("http %d (%s): %s", resp.StatusCode, we.Code, we.Error)}
}

// backpressure builds the *BackpressureError for a 429/503 answer. The
// delay hint prefers the body's retry_after_ms (millisecond precision)
// over the Retry-After header (whole seconds); absent both it is zero
// and the coordinator applies its default.
func (t *HTTPTransport) backpressure(resp *http.Response, route string, we snoopd.ErrorResponse) error {
	after := time.Duration(we.RetryAfterMS) * time.Millisecond
	if after == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
	}
	code := we.Code
	if code == "" {
		code = fmt.Sprintf("http_%d", resp.StatusCode)
	}
	return &BackpressureError{
		Addr: t.base, Route: route, Code: code, RetryAfter: after,
		Err: fmt.Errorf("http %d (%s): %s", resp.StatusCode, code, we.Error),
	}
}

// Healthz implements Transport over GET /healthz.
func (t *HTTPTransport) Healthz(ctx context.Context) error {
	if err := t.fault(ctx, routeHealthz); err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+routeHealthz, nil)
	if err != nil {
		return &TransportError{Addr: t.base, Route: routeHealthz, Err: err}
	}
	resp, err := t.client.Do(hreq)
	if err != nil {
		return &TransportError{Addr: t.base, Route: routeHealthz, Err: err}
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
	if resp.StatusCode != http.StatusOK {
		return &TransportError{Addr: t.base, Route: routeHealthz,
			Err: fmt.Errorf("http %d", resp.StatusCode)}
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}
