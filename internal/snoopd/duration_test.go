package snoopd

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/wire"
)

func TestMsDurationSaturates(t *testing.T) {
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, 0},
		{1500, 1500 * time.Millisecond},
		{-2, -2 * time.Millisecond},
		{math.MaxInt64 / int64(time.Millisecond), time.Duration(math.MaxInt64/int64(time.Millisecond)) * time.Millisecond},
		{math.MaxInt64/int64(time.Millisecond) + 1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64/int64(time.Millisecond) - 1, math.MinInt64},
		{math.MinInt64, math.MinInt64},
	}
	for _, c := range cases {
		if got := msDuration(c.ms); got != c.want {
			t.Errorf("msDuration(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestHugeMillisecondTimeoutsDoNotWrap: a millisecond count too large for
// time.Duration means "effectively forever", not whatever the int64
// multiplication wraps to. On both transports a huge timeout_ms solves
// under the server's cap instead of expiring at once, and a huge
// gtpn_timeout_ms keeps the GTPN stage instead of degrading to MVA.
func TestHugeMillisecondTimeoutsDoNotWrap(t *testing.T) {
	s := newTestServer(t, Config{MaxTimeout: 5 * time.Minute})
	c := wireClient(t, startWire(t, s))
	ctx := context.Background()
	proto := wire.ProtocolSpec{Name: "Illinois"}
	wl := appendixA(5)

	for _, ms := range []int64{math.MaxInt64, 9223372036854776} {
		t.Run(fmt.Sprintf("timeout_ms=%d", ms), func(t *testing.T) {
			body := fmt.Sprintf(`{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 8, "timeout_ms": %d}`, ms)
			if rec := post(t, s, "/v1/solve", body); rec.Code != http.StatusOK {
				t.Fatalf("json solve: status %d: %s", rec.Code, rec.Body.String())
			}
			if _, err := c.Solve(ctx, &wire.SolveRequest{Protocol: proto, Workload: wl, N: 8, TimeoutMS: ms}); err != nil {
				t.Fatalf("wire solve: %v", err)
			}
			body = fmt.Sprintf(`{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 3,
				"budget": {"sim_cycles": -1}, "timeout_ms": %d}`, ms)
			if rec := post(t, s, "/v1/solvebest", body); rec.Code != http.StatusOK {
				t.Fatalf("json solvebest: status %d: %s", rec.Code, rec.Body.String())
			}
			if _, err := c.SolveBest(ctx, &wire.SolveBestRequest{Protocol: proto, Workload: wl, N: 3,
				Budget: &wire.BudgetSpec{SimCycles: -1}, TimeoutMS: ms}); err != nil {
				t.Fatalf("wire solvebest: %v", err)
			}
		})
	}

	t.Run("gtpn_timeout_ms", func(t *testing.T) {
		const ms = 9223372036854776
		body := fmt.Sprintf(`{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 3,
			"budget": {"gtpn_timeout_ms": %d, "sim_cycles": -1}}`, ms)
		rec := post(t, s, "/v1/solvebest", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("json solvebest: status %d: %s", rec.Code, rec.Body.String())
		}
		var jr ResultJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Method != snoopmva.MethodGTPN || jr.Degraded {
			t.Fatalf("json solvebest degraded: %+v", jr)
		}
		wr, err := c.SolveBest(ctx, &wire.SolveBestRequest{Protocol: proto, Workload: wl, N: 3,
			Budget: &wire.BudgetSpec{GTPNTimeoutMS: ms, SimCycles: -1}})
		if err != nil {
			t.Fatalf("wire solvebest: %v", err)
		}
		if wr.Result.Method != snoopmva.MethodGTPN || wr.Result.Degraded {
			t.Fatalf("wire solvebest degraded: %+v", wr)
		}
	})
}

// TestHugeDeadlineHeaderDoesNotWrap: a huge DeadlineHeader is a far
// admission deadline, not a past one. With the only slot taken, the
// request must wait in the queue and be served once the slot frees,
// rather than being shed on arrival as already out of time.
func TestHugeDeadlineHeaderDoesNotWrap(t *testing.T) {
	for _, ms := range []int64{math.MaxInt64, 9223372036854776} {
		ctrl := newAdmission(t, admission.Config{MaxInflight: 1, Target: time.Second})
		s := newTestServer(t, Config{Admission: ctrl})
		if err := ctrl.Admit(context.Background(), "", time.Time{}); err != nil {
			t.Fatalf("priming Admit: %v", err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(solveBody))
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		w := httptest.NewRecorder()
		done := make(chan struct{})
		go func() { defer close(done); s.ServeHTTP(w, req) }()
		for st := ctrl.State(); st.QueueDepth == 0 && st.Shed == 0; st = ctrl.State() {
			time.Sleep(time.Millisecond)
		}
		ctrl.Release(0)
		<-done
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d: status %d: %s", DeadlineHeader, ms, w.Code, w.Body.String())
		}
	}
}
