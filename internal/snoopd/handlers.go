package snoopd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"snoopmva"
	"snoopmva/internal/wire"
)

// maxBodyBytes bounds request bodies; the largest legitimate request (a
// compare of every preset with a fully spelled-out workload) is a few KB.
const maxBodyBytes = 1 << 20

// The request bodies are declared once, in internal/wire, with the JSON
// tags of this API; the binary codec encodes the same structs.
type (
	// ProtocolSpec names a protocol by preset name or modification set.
	ProtocolSpec = wire.ProtocolSpec
	// WorkloadSpec selects an Appendix A level, the stress test, or
	// spelled-out parameters.
	WorkloadSpec = wire.WorkloadSpec
	// BudgetSpec is snoopmva.Budget with wall-clock budgets in ms.
	BudgetSpec = wire.BudgetSpec
	// SolveRequest is the body of POST /v1/solve.
	SolveRequest = wire.SolveRequest
	// SolveBestRequest is the body of POST /v1/solvebest, the endpoint
	// the distributed campaign coordinator (internal/dispatch) shards
	// grids over.
	SolveBestRequest = wire.SolveBestRequest
	// SweepRequest is the body of POST /v1/sweep.
	SweepRequest = wire.SweepRequest
)

func resolveProtocol(ps ProtocolSpec) (snoopmva.Protocol, error) {
	switch {
	case ps.Name != "" && ps.Mods != nil:
		return snoopmva.Protocol{}, fmt.Errorf("protocol: name and mods are mutually exclusive")
	case ps.Name != "":
		p, ok := snoopmva.ProtocolByName(ps.Name)
		if !ok {
			return snoopmva.Protocol{}, fmt.Errorf("protocol: unknown name %q", ps.Name)
		}
		return p, nil
	case ps.Mods != nil:
		return snoopmva.WithMods(ps.Mods...), nil
	default:
		return snoopmva.Protocol{}, fmt.Errorf("protocol: specify name or mods")
	}
}

// WorkloadParams is a fully spelled-out workload. The JSON schema is
// snoopmva.Workload's own tags.
type WorkloadParams = snoopmva.Workload

func resolveWorkload(ws WorkloadSpec) (snoopmva.Workload, error) {
	if ws.AppendixA != nil && ws.Stress {
		return snoopmva.Workload{}, fmt.Errorf("workload: appendix_a and stress are mutually exclusive")
	}
	switch {
	case ws.AppendixA != nil:
		lvl := *ws.AppendixA
		if lvl != 1 && lvl != 5 && lvl != 20 {
			return snoopmva.Workload{}, fmt.Errorf("workload: appendix_a sharing level must be 1, 5 or 20, got %d", lvl)
		}
		w := snoopmva.AppendixA(snoopmva.Sharing(lvl))
		if ws.Params != nil {
			return snoopmva.Workload{}, fmt.Errorf("workload: params with appendix_a is not supported; spell the workload out fully")
		}
		return w, nil
	case ws.Stress:
		if ws.Params != nil {
			return snoopmva.Workload{}, fmt.Errorf("workload: params with stress is not supported; spell the workload out fully")
		}
		return snoopmva.StressWorkload(), nil
	case ws.Params != nil:
		return *ws.Params, nil
	default:
		return snoopmva.Workload{}, fmt.Errorf("workload: specify appendix_a, stress, or params")
	}
}

// resolveBudget converts a request's budget; nil is the zero budget.
func resolveBudget(bs *BudgetSpec) snoopmva.Budget {
	if bs == nil {
		return snoopmva.Budget{}
	}
	return snoopmva.Budget{
		MaxStates:   bs.MaxStates,
		GTPNTimeout: msDuration(bs.GTPNTimeoutMS),
		SimCycles:   bs.SimCycles,
		SimTimeout:  msDuration(bs.SimTimeoutMS),
		Seed:        bs.Seed,
	}
}

// TimingSpec is snoopmva.Timing; omit (or zero) for the paper's
// defaults.
type TimingSpec = snoopmva.Timing

// OptionsSpec is snoopmva.Options; omit for the paper's scheme.
type OptionsSpec = snoopmva.Options

// ResultJSON is snoopmva.Result, whose tags are the schema of every
// answer: the /v1/solve result, the /v1/solvebest body, each sweep entry.
type ResultJSON = snoopmva.Result

// orZero dereferences an optional request arm; absent means the zero
// value, which the solvers read as the paper's defaults.
func orZero[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	Result ResultJSON `json:"result"`
}

// SweepResponse is the body of a successful POST /v1/sweep; results are
// in request order.
type SweepResponse struct {
	Results []ResultJSON `json:"results"`
}

// CompareRequest is the body of POST /v1/compare. An empty protocols list
// means every named preset.
type CompareRequest struct {
	Protocols []ProtocolSpec `json:"protocols,omitempty"`
	Workload  WorkloadSpec   `json:"workload"`
	N         int            `json:"n"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

// CompareEntry pairs a protocol with its result.
type CompareEntry struct {
	Protocol string     `json:"protocol"`
	Result   ResultJSON `json:"result"`
}

// CompareResponse is the body of a successful POST /v1/compare.
type CompareResponse struct {
	Results []CompareEntry `json:"results"`
}

// ErrorResponse is the body of every non-2xx response. RetryAfterMS
// accompanies 429/503 admission sheds: the same hint as the Retry-After
// header, but in milliseconds, since the header's whole-second floor is
// far too coarse for a limiter whose congestion clears in tens of
// milliseconds.
type ErrorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// decode reads a strict JSON body into v: unknown fields, trailing
// garbage and oversized bodies are errors.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("body: trailing data after JSON value")
	}
	return nil
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers a failed request through the shared failure
// projection. Admission sheds also carry a Retry-After header in whole
// seconds (rounded up, per RFC 9110) next to the precise retry_after_ms
// in the body; they are written before the body is read, so a storm of
// oversized requests costs the server nothing but headers.
func writeError(w http.ResponseWriter, err error) {
	status, resp, retry := failure(err)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retry+time.Second-1)/time.Second), 10))
	}
	writeJSON(w, status, resp)
}

// handleOp serves the single-point JSON route of kind k: the body
// decodes into that arm of a BatchItem, runs through exec, and the
// outcome is written as the route's response body.
func (s *Server) handleOp(k opKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var it BatchItem
		if err := decode(r, it.arm(k)); err != nil {
			writeError(w, &InputError{Err: err})
			return
		}
		oc := s.exec(r.Context(), &it)
		if oc.err != nil {
			writeError(w, oc.err)
			return
		}
		rec := oc.record(it.Seq)
		switch k {
		case opSolveBest:
			writeJSON(w, http.StatusOK, rec.SolveBest)
		case opSweep:
			writeJSON(w, http.StatusOK, SweepResponse{Results: rec.Sweep})
		default:
			writeJSON(w, http.StatusOK, SolveResponse{Result: *rec.Result})
		}
	}
}

// The SpecFor helpers build request specs that resolve back to the given
// in-memory values; both dispatch transports use them to put campaign
// points on the wire. A protocol with a preset name travels by name,
// anything else by its modification set (a protocol carrying invalid
// modification numbers is not representable and is sanitized by the
// round-trip; campaign grids are validated before dispatch).

// SpecForProtocol returns the ProtocolSpec that resolves back to p. The
// unnamed base protocol travels as the Write-Once preset it equals: an
// empty mods list would vanish from a JSON body.
func SpecForProtocol(p snoopmva.Protocol) ProtocolSpec {
	if name := p.Name(); name != "" {
		return ProtocolSpec{Name: name}
	}
	if mods := p.Mods(); mods != nil {
		return ProtocolSpec{Mods: mods}
	}
	return ProtocolSpec{Name: snoopmva.WriteOnce().Name()}
}

// SpecForWorkload returns the fully spelled-out WorkloadSpec for w.
func SpecForWorkload(w snoopmva.Workload) WorkloadSpec { return WorkloadSpec{Params: &w} }

// WireProtocolSpec is SpecForProtocol.
//
// Deprecated: both transports take the ProtocolSpec SpecForProtocol returns.
func WireProtocolSpec(p snoopmva.Protocol) ProtocolSpec { return SpecForProtocol(p) }

// WireWorkloadSpec is SpecForWorkload.
//
// Deprecated: both transports take the WorkloadSpec SpecForWorkload returns.
func WireWorkloadSpec(w snoopmva.Workload) WorkloadSpec { return SpecForWorkload(w) }

// SpecForBudget returns the BudgetSpec for b (nil for the zero budget).
// Stage timeouts are rounded away from zero to whole milliseconds, so a
// sub-millisecond deadline stays a deadline (0 would mean none) and a
// negative one stays invalid, exactly as a local SolveBest sees them.
func SpecForBudget(b snoopmva.Budget) *BudgetSpec {
	if b == (snoopmva.Budget{}) {
		return nil
	}
	return &BudgetSpec{
		MaxStates:     b.MaxStates,
		GTPNTimeoutMS: wholeMS(b.GTPNTimeout),
		SimCycles:     b.SimCycles,
		SimTimeoutMS:  wholeMS(b.SimTimeout),
		Seed:          b.Seed,
	}
}

// wholeMS rounds d away from zero to whole milliseconds.
func wholeMS(d time.Duration) int64 {
	ms, rem := int64(d/time.Millisecond), d%time.Millisecond
	switch {
	case rem > 0:
		ms++
	case rem < 0:
		ms--
	}
	return ms
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if err := decode(r, &req); err != nil {
		writeError(w, &InputError{Err: err})
		return
	}
	var ps []snoopmva.Protocol
	if len(req.Protocols) == 0 {
		ps = snoopmva.Protocols()
	} else {
		ps = make([]snoopmva.Protocol, len(req.Protocols))
		for i, spec := range req.Protocols {
			p, err := resolveProtocol(spec)
			if err != nil {
				writeError(w, inputErrorf("protocols[%d]: %v", i, err))
				return
			}
			ps[i] = p
		}
	}
	wl, err := resolveWorkload(req.Workload)
	if err != nil {
		writeError(w, &InputError{Err: err})
		return
	}
	ctx, cancel, err := s.coreContext(r.Context(), req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	results, err := snoopmva.Compare(ctx, s.solver, ps, wl, req.N)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]CompareEntry, len(results))
	for i, res := range results {
		out[i] = CompareEntry{Protocol: ps[i].String(), Result: res}
	}
	writeJSON(w, http.StatusOK, CompareResponse{Results: out})
}
