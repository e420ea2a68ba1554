package snoopd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/wire"
)

// This file holds the one operation path every codec runs a request
// through: admit → exec → project. The JSON endpoints, /v1/batch and the
// binary wire listener all decode into a BatchItem (a seq plus exactly
// one of solve, solvebest or sweep), so each per-kind decision is made
// here once: the admission scale (opScale), the timeout
// (BatchItem.kind), the core that runs the op (exec) and the error
// taxonomy (failure). The codecs only decode and encode. That shared
// spine is what the JSON↔binary equivalence suite leans on.

// InputError marks a request-validation failure (an unresolvable spec, a
// negative timeout): 400/"invalid_input" on HTTP, an "invalid_input"
// Error frame on the wire. The message is the wrapped error's, verbatim,
// so both transports report identical text.
type InputError struct{ Err error }

// Error implements error.
func (e *InputError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped validation failure.
func (e *InputError) Unwrap() error { return e.Err }

// inputErrorf formats an *InputError.
func inputErrorf(format string, args ...any) error {
	return &InputError{Err: fmt.Errorf(format, args...)}
}

// opKind is a request's kind. The zero value marks an item that carries
// zero or several arms.
type opKind uint8

const (
	opInvalid opKind = iota
	opSolve
	opSolveBest
	opSweep
	opCompare // HTTP-only: /v1/compare has no batch or wire form
)

// opScale scales the admission controller's base latency target per
// kind: a sweep or compare runs many solves per request, so holding it
// to the single-solve target would make every one look like congestion.
var opScale = [...]int{opInvalid: 1, opSolve: 1, opSolveBest: 4, opSweep: 8, opCompare: 8}

// outcome is one executed op in native snoopmva values: unless err is
// set, sweep holds a sweep's answers and res any other op's.
type outcome struct {
	kind  opKind
	res   snoopmva.Result
	sweep []snoopmva.Result
	err   error
}

// exec runs one op through its core; it is the only switch from kind to
// core. Spec resolution and validation happen inside the cores,
// after admission, so a shed always wins over an invalid request.
func (s *Server) exec(ctx context.Context, it *BatchItem) outcome {
	var oc outcome
	oc.kind, _ = it.kind()
	switch oc.kind {
	case opSolve:
		oc.res, oc.err = s.solveCore(ctx, it.Solve)
	case opSolveBest:
		oc.res, oc.err = s.solveBestCore(ctx, it.SolveBest)
	case opSweep:
		oc.sweep, oc.err = s.sweepCore(ctx, it.Sweep)
	}
	return oc
}

// admitExec admits one op and executes it while holding the admission
// slot; a shed becomes the outcome's error.
func (s *Server) admitExec(ctx context.Context, clientID string, it *BatchItem) outcome {
	release, err := s.admitPoint(ctx, clientID, it)
	if err != nil {
		return outcome{err: err}
	}
	defer release()
	return s.exec(ctx, it)
}

// admitPoint runs one point through the admission controller (a no-op
// release when admission is off). The deadline hint comes from the
// point's own timeout so the queue can shed points that would outlive
// it, mirroring the DeadlineHeader convention of the single-request
// endpoints; the release reports against the kind's scaled target.
func (s *Server) admitPoint(ctx context.Context, clientID string, it *BatchItem) (release func(), err error) {
	if s.adm == nil {
		return func() {}, nil
	}
	k, timeoutMS := it.kind()
	var deadline time.Time
	if timeoutMS >= 0 {
		if d := timeoutDuration(timeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
			deadline = time.Now().Add(d)
		}
	}
	if err := s.adm.Admit(ctx, clientID, deadline); err != nil {
		return nil, err
	}
	start := time.Now()
	target := time.Duration(opScale[k]) * s.adm.Target()
	return func() { s.adm.ReleaseWith(time.Since(start), target) }, nil
}

// msDuration converts a request's millisecond count to a Duration,
// saturating at the Duration range instead of wrapping: a client asking
// for more milliseconds than a Duration can hold means "effectively
// forever", not whatever the multiplication overflows to.
func msDuration(ms int64) time.Duration {
	const perMS = int64(time.Millisecond)
	switch {
	case ms > math.MaxInt64/perMS:
		return math.MaxInt64
	case ms < math.MinInt64/perMS:
		return math.MinInt64
	}
	return time.Duration(ms * perMS)
}

// timeoutDuration resolves a request's timeout_ms against the server's
// default and cap. Zero means no deadline.
func timeoutDuration(timeoutMS int64, def, max time.Duration) time.Duration {
	d := msDuration(timeoutMS)
	if d == 0 {
		d = def
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

// coreContext derives a request's solve context from parent: the
// requested (or default) deadline, capped by cfg.MaxTimeout.
func (s *Server) coreContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 {
		return nil, nil, inputErrorf("timeout_ms: must be non-negative, got %d", timeoutMS)
	}
	d := timeoutDuration(timeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if d == 0 {
		ctx, cancel := context.WithCancel(parent)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithTimeout(parent, d)
	return ctx, cancel, nil
}

// resolve resolves a request's protocol and workload specs, in that
// order; a failure is an *InputError.
func resolve(ps ProtocolSpec, ws WorkloadSpec) (snoopmva.Protocol, snoopmva.Workload, error) {
	p, err := resolveProtocol(ps)
	if err != nil {
		return p, snoopmva.Workload{}, &InputError{Err: err}
	}
	wl, err := resolveWorkload(ws)
	if err != nil {
		return p, wl, &InputError{Err: err}
	}
	return p, wl, nil
}

// solveCore executes a solve request. Validation failures return
// *InputError; solver failures carry the root package's sentinel
// taxonomy.
func (s *Server) solveCore(parent context.Context, req *SolveRequest) (snoopmva.Result, error) {
	p, wl, err := resolve(req.Protocol, req.Workload)
	if err != nil {
		return snoopmva.Result{}, err
	}
	ctx, cancel, err := s.coreContext(parent, req.TimeoutMS)
	if err != nil {
		return snoopmva.Result{}, err
	}
	defer cancel()
	return s.solver.SolveWithContext(ctx, p, wl, orZero(req.Timing), req.N, orZero(req.Options))
}

// solveBestCore executes a solvebest request, including the brownout
// ladder: under overload, a resident full-fidelity answer for exactly
// this budget beats any degradation; otherwise the expensive GTPN/sim
// stages are shed and the microsecond MVA solve answers, tagged
// Degraded. A budget that was already MVA-only is served untouched.
func (s *Server) solveBestCore(parent context.Context, req *SolveBestRequest) (snoopmva.Result, error) {
	p, wl, err := resolve(req.Protocol, req.Workload)
	if err != nil {
		return snoopmva.Result{}, err
	}
	ctx, cancel, err := s.coreContext(parent, req.TimeoutMS)
	if err != nil {
		return snoopmva.Result{}, err
	}
	defer cancel()
	b := resolveBudget(req.Budget)
	brownedOut := false
	if s.adm != nil && s.adm.BrownoutActive() {
		if s.cfg.Cache != nil {
			if best, ok := s.cfg.Cache.PeekSolveBest(p, wl, req.N, b); ok {
				return best, nil
			}
		}
		if b.MaxStates >= 0 || b.SimCycles >= 0 {
			b = snoopmva.Budget{MaxStates: -1, SimCycles: -1, Seed: b.Seed}
			brownedOut = true
		}
	}
	best, err := s.solver.SolveBest(ctx, p, wl, req.N, b)
	if err != nil {
		return snoopmva.Result{}, err
	}
	if brownedOut {
		best.Degraded = true
		reason := "brownout: gtpn/sim stages shed under overload"
		if best.FallbackReason != "" {
			reason += "; " + best.FallbackReason
		}
		best.FallbackReason = reason
	}
	return best, nil
}

// sweepCore executes a sweep request; results are in request order.
// Parallel picks the scheduling only: every size is a cold solve, so the
// answers are the same either way.
func (s *Server) sweepCore(parent context.Context, req *SweepRequest) ([]snoopmva.Result, error) {
	if len(req.Ns) == 0 {
		return nil, inputErrorf("ns: at least one system size is required")
	}
	if len(req.Ns) > wire.MaxBatchPoints {
		return nil, inputErrorf("ns: %d system sizes exceed the %d bound", len(req.Ns), wire.MaxBatchPoints)
	}
	p, wl, err := resolve(req.Protocol, req.Workload)
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.coreContext(parent, req.TimeoutMS)
	if err != nil {
		return nil, err
	}
	defer cancel()
	workers := 1
	if req.Parallel {
		workers = 0
	}
	return snoopmva.Sweep(ctx, s.solver, p, wl, req.Ns, workers)
}

// failure projects an error onto the shared taxonomy — the one mapping
// the JSON endpoints, /v1/batch and the wire codec all use. retry is
// non-zero only for admission sheds (429, or 503 while draining): HTTP
// adds a Retry-After header for it and the wire codec answers a
// Backpressure frame instead of an Error frame.
func failure(err error) (status int, resp ErrorResponse, retry time.Duration) {
	resp.Error = err.Error()
	var se *admission.ShedError
	var ie *InputError
	switch {
	case errors.As(err, &se):
		status, resp.Code = http.StatusTooManyRequests, "overloaded"
		switch se.Reason {
		case admission.ReasonDraining:
			status, resp.Code = http.StatusServiceUnavailable, "draining"
		case admission.ReasonRateLimit:
			resp.Code = "rate_limited"
		}
		resp.RetryAfterMS = se.RetryAfter.Milliseconds()
		return status, resp, se.RetryAfter
	case errors.As(err, &ie), errors.Is(err, snoopmva.ErrInvalidInput):
		status, resp.Code = http.StatusBadRequest, "invalid_input"
	case errors.Is(err, snoopmva.ErrCanceled):
		status, resp.Code = http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, snoopmva.ErrNoConvergence):
		status, resp.Code = http.StatusUnprocessableEntity, "no_convergence"
	case errors.Is(err, snoopmva.ErrDiverged):
		status, resp.Code = http.StatusUnprocessableEntity, "diverged"
	case errors.Is(err, snoopmva.ErrStateExplosion):
		status, resp.Code = http.StatusUnprocessableEntity, "state_explosion"
	default:
		status, resp.Code = http.StatusInternalServerError, "internal"
	}
	return status, resp, 0
}
