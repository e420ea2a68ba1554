package snoopd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"snoopmva/internal/faultinject"
)

// batchArm names the /v1/batch item arm that carries a single endpoint's
// request body.
var batchArm = map[string]string{
	"/v1/solve":     "solve",
	"/v1/solvebest": "solvebest",
	"/v1/sweep":     "sweep",
}

// singleAsRecord posts body to a single-point endpoint and projects the
// answer onto the BatchRecord the same point must produce inside a batch.
func singleAsRecord(t *testing.T, s *Server, path, body string) BatchRecord {
	t.Helper()
	rec := post(t, s, path, body)
	if rec.Code != http.StatusOK {
		e := decodeError(t, rec)
		return BatchRecord{Seq: 1, Error: &e}
	}
	out := BatchRecord{Seq: 1}
	var err error
	switch path {
	case "/v1/solve":
		var r SolveResponse
		err = json.Unmarshal(rec.Body.Bytes(), &r)
		out.Result = &r.Result
	case "/v1/solvebest":
		var r ResultJSON
		err = json.Unmarshal(rec.Body.Bytes(), &r)
		out.SolveBest = &r
	case "/v1/sweep":
		var r SweepResponse
		err = json.Unmarshal(rec.Body.Bytes(), &r)
		out.Sweep = r.Results
	default:
		t.Fatalf("no batch arm for %s", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireBatchParity submits body once to its single endpoint and once as
// the only item of a /v1/batch request, and requires the two answers to
// be identical. Both sides are compared as re-encoded JSON: encoding/json
// writes the shortest decimal that round-trips, so byte-equal encodings
// mean bitwise-equal floats, and the error code and message text must
// match character for character.
func requireBatchParity(t *testing.T, s *Server, path, body string) BatchRecord {
	t.Helper()
	want := singleAsRecord(t, s, path, body)
	_, records := postBatch(t, s, fmt.Sprintf(`{"items": [{"seq": 1, %q: %s}]}`, batchArm[path], body))
	got, ok := records[1]
	if !ok || len(records) != 1 {
		t.Fatalf("batch answered %d records, want exactly seq 1: %+v", len(records), records)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("batch record diverges from %s:\n single %s\n batch  %s", path, wb, gb)
	}
	return got
}

// TestBatchSingleParityResults: every equivalence-suite request answers
// identically inside /v1/batch and on its own endpoint.
func TestBatchSingleParityResults(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if rec := requireBatchParity(t, s, tc.path, tc.json); rec.Error != nil {
				t.Fatalf("equivalence case failed: %+v", rec.Error)
			}
		})
	}
}

// TestBatchSingleParityErrors: failing points carry the same code and
// message text inside /v1/batch as on their own endpoint, for every
// request arm and every failure class (validation, solver taxonomy).
func TestBatchSingleParityErrors(t *testing.T) {
	cases := []struct {
		name, path, json, wantCode string
		hooks                      *faultinject.Set
	}{
		{
			name:     "solvebest unknown protocol",
			path:     "/v1/solvebest",
			json:     `{"protocol": {"name": "MESIF"}, "workload": {"appendix_a": 5}, "n": 4}`,
			wantCode: "invalid_input",
		},
		{
			name:     "sweep empty ns",
			path:     "/v1/sweep",
			json:     `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "ns": []}`,
			wantCode: "invalid_input",
		},
		{
			name:     "solve negative timeout",
			path:     "/v1/solve",
			json:     `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 4, "timeout_ms": -1}`,
			wantCode: "invalid_input",
		},
		{
			name:     "solve no convergence",
			path:     "/v1/solve",
			json:     `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 6}`,
			wantCode: "no_convergence",
			hooks:    &faultinject.Set{MVAStall: func(int) bool { return true }},
		},
		{
			name:     "solve diverged",
			path:     "/v1/solve",
			json:     `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 6}`,
			wantCode: "diverged",
			hooks:    &faultinject.Set{MVAPoison: func(int) (float64, bool) { return math.NaN(), true }},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.hooks != nil {
				restore := faultinject.Activate(tc.hooks)
				defer restore()
			}
			s := newTestServer(t, Config{})
			rec := requireBatchParity(t, s, tc.path, tc.json)
			if rec.Error == nil || rec.Error.Code != tc.wantCode {
				t.Fatalf("record = %+v, want code %q", rec, tc.wantCode)
			}
		})
	}
}
