package snoopd

import (
	"encoding/json"
	"net/http"
	"sync"

	"snoopmva/internal/wire"
)

// batchWorkers bounds the per-request solve concurrency of /v1/batch.
const batchWorkers = 8

// BatchItem is one point of a POST /v1/batch request: a client-chosen
// sequence id plus exactly one request arm.
type BatchItem struct {
	Seq       uint64            `json:"seq"`
	Solve     *SolveRequest     `json:"solve,omitempty"`
	SolveBest *SolveBestRequest `json:"solvebest,omitempty"`
	Sweep     *SweepRequest     `json:"sweep,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many points in one
// request. The response is an NDJSON stream of BatchRecord lines in
// completion order, matched to items by seq.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchRecord is one line of the /v1/batch response stream: the seq of
// the item it answers plus exactly one outcome arm. Error carries the
// same taxonomy as non-batch endpoints — including admission sheds,
// which appear per point (code "overloaded"/"rate_limited"/"draining"
// with retry_after_ms) so one congested point never poisons the batch.
type BatchRecord struct {
	Seq       uint64         `json:"seq"`
	Result    *ResultJSON    `json:"result,omitempty"`
	SolveBest *ResultJSON    `json:"solvebest,omitempty"`
	Sweep     []ResultJSON   `json:"sweep,omitempty"`
	Error     *ErrorResponse `json:"error,omitempty"`
}

// kind reports which arm the item carries and that arm's timeout_ms —
// the one place a request's kind and timeout are read. Zero or several
// arms is opInvalid.
func (it *BatchItem) kind() (k opKind, timeoutMS int64) {
	switch {
	case it.Solve != nil && it.SolveBest == nil && it.Sweep == nil:
		return opSolve, it.Solve.TimeoutMS
	case it.Solve == nil && it.SolveBest != nil && it.Sweep == nil:
		return opSolveBest, it.SolveBest.TimeoutMS
	case it.Solve == nil && it.SolveBest == nil && it.Sweep != nil:
		return opSweep, it.Sweep.TimeoutMS
	}
	return opInvalid, 0
}

// arm allocates the item's arm of kind k and returns it as the target a
// single-point JSON body decodes into.
func (it *BatchItem) arm(k opKind) any {
	switch k {
	case opSolveBest:
		it.SolveBest = new(SolveBestRequest)
		return it.SolveBest
	case opSweep:
		it.Sweep = new(SweepRequest)
		return it.Sweep
	default:
		it.Solve = new(SolveRequest)
		return it.Solve
	}
}

// record projects an outcome onto the JSON wire: the /v1/batch line for
// seq, whose arm is also the single-point endpoints' response body.
func (oc *outcome) record(seq uint64) *BatchRecord {
	rec := &BatchRecord{Seq: seq}
	switch {
	case oc.err != nil:
		_, e, _ := failure(oc.err)
		rec.Error = &e
	case oc.kind == opSweep:
		rec.Sweep = oc.sweep
	case oc.kind == opSolveBest:
		res := oc.res // a copy, so the record does not pin the whole outcome
		rec.SolveBest = &res
	default:
		res := oc.res
		rec.Result = &res
	}
	return rec
}

// handleBatch streams many points through the op path with per-point
// admission. The route is registered without the admitted() wrapper:
// gating the whole batch on one admission slot would make a 1000-point
// batch indistinguishable from a single solve, so each point pays for
// itself instead, and brownout/shed semantics compose per point exactly
// as they do for the single-request endpoints.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		writeError(w, &InputError{Err: err})
		return
	}
	if len(req.Items) == 0 {
		writeError(w, inputErrorf("items: at least one point is required"))
		return
	}
	if len(req.Items) > wire.MaxBatchPoints {
		writeError(w, inputErrorf("items: %d points exceed the %d bound", len(req.Items), wire.MaxBatchPoints))
		return
	}
	for i := range req.Items {
		if k, _ := req.Items[i].kind(); k == opInvalid {
			writeError(w, inputErrorf("items[%d]: exactly one of solve, solvebest, sweep is required", i))
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var outMu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(it *BatchItem, oc outcome) {
		rec := oc.record(it.Seq)
		outMu.Lock()
		defer outMu.Unlock()
		_ = enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}

	ctx := r.Context()
	clientID := r.Header.Get(ClientIDHeader)

	items := make(chan *BatchItem)
	workers := min(batchWorkers, len(req.Items))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				emit(it, s.admitExec(ctx, clientID, it))
			}
		}()
	}
feed:
	for i := range req.Items {
		select {
		case items <- &req.Items[i]:
		case <-ctx.Done():
			break feed // client gone: stop feeding
		}
	}
	close(items)
	wg.Wait()
}
