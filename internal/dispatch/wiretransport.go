package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"snoopmva"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/snoopd"
	"snoopmva/internal/wire"
)

// routeWire is the route label wire-transport requests carry in
// TransportError/BackpressureError and in the faultinject.HTTPFault
// hook, which partitions binary links exactly like JSON ones.
const routeWire = "wire"

// WireTransport speaks the binary wire protocol to a snoopd wire
// listener over one persistent, pipelined connection — the campaign
// coordinator's points share the connection instead of paying per-request
// HTTP setup, which is the batching that makes remote dispatch cheap.
// Failures surface as the same TransportError / BackpressureError /
// RemoteError taxonomy as the HTTP transport, so the coordinator's
// retry, breaker and backpressure logic applies unchanged. The client
// does not resend: a lost connection fails every point in flight on it
// as a *TransportError, the coordinator requeues each one, and the next
// call dials afresh.
//
// If the server negotiates an incompatible protocol version the
// transport latches permanently onto its HTTP fallback (when configured
// with one), so a mixed-version pool degrades to JSON instead of
// failing. Construct with NewWireTransport.
type WireTransport struct {
	addr     string
	client   *wire.Client
	fallback *HTTPTransport
	fellBack atomic.Bool
}

// NewWireTransport returns a Transport for the snoopd wire listener at
// addr ("host:port"). httpBase, when non-empty, names the same worker's
// JSON API (e.g. "http://127.0.0.1:8080") as the version-mismatch
// fallback; empty disables falling back.
func NewWireTransport(addr, httpBase string) *WireTransport {
	t := &WireTransport{
		addr:   addr,
		client: wire.NewClient(addr, wire.ClientOptions{ClientName: "dispatch"}),
	}
	if httpBase != "" {
		t.fallback = NewHTTPTransport(httpBase, nil)
	}
	return t
}

// Addr implements Transport.
func (t *WireTransport) Addr() string { return "wire://" + t.addr }

// Close releases the persistent connection.
func (t *WireTransport) Close() error { return t.client.Close() }

// fault consults the process-global HTTPFault hook under the "wire"
// route, so chaos tests partition binary links with the same lever as
// JSON ones.
func (t *WireTransport) fault(ctx context.Context) error {
	h := faultinject.Hooks()
	if h == nil || h.HTTPFault == nil {
		return nil
	}
	delay, ferr := h.HTTPFault(t.addr, routeWire)
	if delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return &TransportError{Addr: t.Addr(), Route: routeWire, Err: ctx.Err()}
		case <-timer.C:
		}
	}
	if ferr != nil {
		return &TransportError{Addr: t.Addr(), Route: routeWire, Err: ferr}
	}
	return nil
}

// SolveBest implements Transport over a SolveBestReq frame.
func (t *WireTransport) SolveBest(ctx context.Context, p snoopmva.Protocol, w snoopmva.Workload, n int, b snoopmva.Budget) (snoopmva.Result, error) {
	if t.fellBack.Load() {
		return t.fallback.SolveBest(ctx, p, w, n, b)
	}
	if err := t.fault(ctx); err != nil {
		return snoopmva.Result{}, err
	}
	req := &snoopd.SolveBestRequest{
		Protocol: snoopd.SpecForProtocol(p),
		Workload: snoopd.SpecForWorkload(w),
		N:        n,
		Budget:   snoopd.SpecForBudget(b),
	}
	// The wire protocol has no deadline header: the request's timeout_ms
	// carries the remaining deadline so the worker's admission queue can
	// shed points that would expire waiting, like the HTTP path does.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	resp, err := t.client.SolveBest(ctx, req)
	if err != nil {
		if wire.IsVersionMismatch(err) && t.fallback != nil {
			t.fellBack.Store(true)
			return t.fallback.SolveBest(ctx, p, w, n, b)
		}
		return snoopmva.Result{}, t.mapError(err)
	}
	return resp.Result, nil
}

// mapError converts a wire client failure onto the dispatch error
// taxonomy: an Error frame whose code names a permanent solver failure
// becomes an authoritative *RemoteError (same sentinel chain as the JSON
// path), a Backpressure frame becomes a *BackpressureError that never
// feeds the breaker, and everything else — a lost connection, protocol
// errors, deadline/internal codes — is a *TransportError: the point
// stays unresolved, and the coordinator requeues it.
func (t *WireTransport) mapError(err error) error {
	var reqErr *wire.RequestError
	var shed *wire.BackpressureError
	switch {
	case errors.As(err, &reqErr):
		if sentinel, ok := permanentSentinel(reqErr.Code); ok {
			return &RemoteError{Code: reqErr.Code, Msg: reqErr.Msg, sentinel: sentinel}
		}
		return &TransportError{Addr: t.Addr(), Route: routeWire,
			Err: fmt.Errorf("server error (%s): %s", reqErr.Code, reqErr.Msg)}
	case errors.As(err, &shed):
		return &BackpressureError{
			Addr: t.Addr(), Route: routeWire, Code: shed.Code, RetryAfter: shed.RetryAfter,
			Err: fmt.Errorf("backpressure (%s)", shed.Code),
		}
	default:
		return &TransportError{Addr: t.Addr(), Route: routeWire, Err: err}
	}
}

// Healthz implements Transport over Ping/Pong; a draining server
// reports unhealthy, like /healthz answering 503.
func (t *WireTransport) Healthz(ctx context.Context) error {
	if t.fellBack.Load() {
		return t.fallback.Healthz(ctx)
	}
	if err := t.fault(ctx); err != nil {
		return err
	}
	pong, err := t.client.Ping(ctx)
	if err != nil {
		if wire.IsVersionMismatch(err) && t.fallback != nil {
			t.fellBack.Store(true)
			return t.fallback.Healthz(ctx)
		}
		return &TransportError{Addr: t.Addr(), Route: routeWire, Err: err}
	}
	if pong.Draining {
		return &TransportError{Addr: t.Addr(), Route: routeWire, Err: fmt.Errorf("draining")}
	}
	return nil
}
