package snoopd

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"snoopmva"
)

// TestBudgetSpecRoundsAwayFromZero checks that both transports carry a
// stage timeout as whole milliseconds rounded away from zero: a
// positive sub-millisecond budget must not become 0 ("no deadline"),
// and a negative one must stay negative so a worker rejects it exactly
// as a local SolveBest does.
func TestBudgetSpecRoundsAwayFromZero(t *testing.T) {
	s := newTestServer(t, Config{})
	wl := snoopmva.AppendixA(snoopmva.Sharing5)
	for _, c := range []struct {
		in     time.Duration
		wantMS int64
	}{
		{500 * time.Microsecond, 1},
		{1500 * time.Microsecond, 2},
		{2 * time.Millisecond, 2},
		{-time.Nanosecond, -1},
		{-1500 * time.Microsecond, -2},
	} {
		// MVA-only budgets: the test is about the timeouts, not the ladder.
		for _, b := range []snoopmva.Budget{
			{MaxStates: -1, SimCycles: -1, GTPNTimeout: c.in},
			{MaxStates: -1, SimCycles: -1, SimTimeout: c.in},
		} {
			spec := SpecForBudget(b)
			if got := spec.GTPNTimeoutMS + spec.SimTimeoutMS; got != c.wantMS {
				t.Errorf("SpecForBudget(%+v): timeout %d ms, want %d", b, got, c.wantMS)
			}
			_, localErr := snoopmva.SolveBest(context.Background(), snoopmva.Illinois(), wl, 2, b)
			body, _ := json.Marshal(SolveBestRequest{Protocol: SpecForProtocol(snoopmva.Illinois()),
				Workload: SpecForWorkload(wl), N: 2, Budget: spec})
			w := post(t, s, "/v1/solvebest", string(body))
			if remoteRejected := w.Code == http.StatusBadRequest; remoteRejected != (localErr != nil) {
				t.Errorf("budget %+v: remote status %d (body %s), local err %v", b, w.Code, w.Body.String(), localErr)
			}
		}
	}
}
