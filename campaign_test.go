package snoopmva

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/journal"
)

// mvaOnlyBudget skips the GTPN and simulator stages so campaign tests run
// in microseconds per point.
var mvaOnlyBudget = Budget{MaxStates: -1, SimCycles: -1}

// testGrid builds a small deterministic grid of points.
func testGrid(n int, b Budget) []CampaignPoint {
	protos := Protocols()
	w := AppendixA(Sharing5)
	pts := make([]CampaignPoint, n)
	for i := range pts {
		pts[i] = CampaignPoint{
			Protocol: protos[i%len(protos)],
			Workload: w,
			N:        1 + i%12,
			Budget:   b,
		}
	}
	return pts
}

// journalPoints parses a campaign journal and returns its point records
// by index, failing the test on duplicates.
func journalPoints(t *testing.T, path string) map[int]PointResult {
	t.Helper()
	j, info, err := journal.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer j.Close()
	out := map[int]PointResult{}
	for i, p := range info.Payloads {
		var rec struct {
			Kind  string       `json:"kind"`
			Point *PointResult `json:"point"`
		}
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatalf("journal record %d: %v", i, err)
		}
		if rec.Kind != "point" {
			continue
		}
		if _, dup := out[rec.Point.Index]; dup {
			t.Fatalf("journal double-counts point %d", rec.Point.Index)
		}
		out[rec.Point.Index] = *rec.Point
	}
	return out
}

// mvaCurves is one MVA-only speedup curve over N = 1..64 for every
// protocol at one workload: 448 points, an interactive design-space sweep.
func mvaCurves() []CampaignPoint {
	w := AppendixA(Sharing5)
	var pts []CampaignPoint
	for _, p := range Protocols() {
		for n := 1; n <= 64; n++ {
			pts = append(pts, CampaignPoint{Protocol: p, Workload: w, N: n, Budget: mvaOnlyBudget})
		}
	}
	return pts
}

func TestCampaignRunsAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	spec := CampaignSpec{
		Points:           testGrid(24, mvaOnlyBudget),
		Journal:          path,
		Workers:          4,
		BreakerThreshold: -1,
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if res.Computed != 24 || res.Resumed != 0 || res.Failed != 0 {
		t.Fatalf("first run: %+v", res)
	}
	for i, pr := range res.Results {
		if pr.Index != i || pr.Err != "" || pr.Method != MethodMVA || pr.Speedup <= 0 {
			t.Fatalf("point %d: %+v", i, pr)
		}
	}
	if got := journalPoints(t, path); len(got) != 24 {
		t.Fatalf("journal has %d points, want 24", len(got))
	}

	// A second run without Resume must refuse the populated journal.
	if _, err := RunCampaign(context.Background(), spec); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("overwrite without Resume: err = %v, want ErrInvalidInput", err)
	}

	// With Resume, every point is served from the journal and nothing is
	// recomputed.
	spec.Resume = true
	res2, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res2.Computed != 0 || res2.Resumed != 24 {
		t.Fatalf("resume run: %+v", res2)
	}
	for i, pr := range res2.Results {
		if pr.Speedup != res.Results[i].Speedup || !pr.Resumed {
			t.Fatalf("resumed point %d diverged: %+v vs %+v", i, pr, res.Results[i])
		}
	}
}

func TestCampaignResumeRefusesDifferentSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	spec := CampaignSpec{Points: testGrid(4, mvaOnlyBudget), Journal: path, BreakerThreshold: -1}
	if _, err := RunCampaign(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Resume = true
	other.Points = testGrid(5, mvaOnlyBudget)
	if _, err := RunCampaign(context.Background(), other); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("mismatched resume: err = %v, want ErrInvalidInput", err)
	}
}

func TestCampaignEmptySpecRejected(t *testing.T) {
	if _, err := RunCampaign(context.Background(), CampaignSpec{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty spec: %v", err)
	}
	if _, err := RunCampaign(context.Background(), CampaignSpec{Points: testGrid(1, mvaOnlyBudget), Resume: true}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("resume without journal: %v", err)
	}
}

func TestCampaignTransientFaultsAreRetried(t *testing.T) {
	var calls atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		PointFault: func(index, attempt int) error {
			calls.Add(1)
			if index == 3 && attempt <= 2 {
				return fmt.Errorf("injected transient at point %d attempt %d", index, attempt)
			}
			if index == 5 {
				return fmt.Errorf("injected persistent transient at point %d", index)
			}
			return nil
		},
	})
	defer restore()

	spec := CampaignSpec{
		Points:           testGrid(8, mvaOnlyBudget),
		Workers:          1,
		BreakerThreshold: -1,
		Retry:            CampaignRetry{MaxAttempts: 3, BaseDelay: time.Microsecond, Seed: 11},
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if got := res.Results[3]; got.Attempts != 3 || got.Err != "" || got.Method != MethodMVA {
		t.Fatalf("transient point not healed by retry: %+v", got)
	}
	// Point 5 exhausts its budget: recorded as failed, campaign continues.
	if got := res.Results[5]; got.Attempts != 3 || got.Err == "" {
		t.Fatalf("persistent point: %+v", got)
	}
	if res.Failed != 1 || res.Computed != 8 {
		t.Fatalf("aggregate: %+v", res)
	}
	// Permanent sibling points were attempted exactly once each.
	if got := res.Results[0]; got.Attempts != 1 {
		t.Fatalf("healthy point retried: %+v", got)
	}
}

func TestCampaignPermanentErrorsAreNotRetried(t *testing.T) {
	grid := testGrid(4, mvaOnlyBudget)
	grid[2].Workload.PPrivate = 2.5 // invalid: stream partition broken
	spec := CampaignSpec{
		Points:           grid,
		Workers:          1,
		BreakerThreshold: -1,
		Retry:            CampaignRetry{MaxAttempts: 4, BaseDelay: time.Microsecond},
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	got := res.Results[2]
	if got.Err == "" || got.Attempts != 1 {
		t.Fatalf("invalid-input point should fail permanently on attempt 1: %+v", got)
	}
	if !strings.Contains(got.Err, "invalid input") {
		t.Fatalf("error lost its class: %q", got.Err)
	}
}

func TestCampaignWatchdogTimesOutStuckStage(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		SimSlowCycle: func(int64) { time.Sleep(20 * time.Millisecond) },
	})
	defer restore()

	pts := testGrid(1, Budget{MaxStates: -1, SimCycles: 50000})
	spec := CampaignSpec{
		Points:           pts,
		Workers:          1,
		BreakerThreshold: -1,
		PointTimeout:     30 * time.Millisecond,
		Retry:            CampaignRetry{MaxAttempts: 2, BaseDelay: time.Microsecond},
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	got := res.Results[0]
	if got.Err == "" || !strings.Contains(got.Err, "watchdog") {
		t.Fatalf("stuck stage not converted to typed timeout: %+v", got)
	}
	if got.Attempts != 2 {
		t.Fatalf("watchdog timeout should be retryable: %+v", got)
	}
}

func TestCampaignCancellationLeavesResumableJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		MVAEnter: func(int) {
			if done.Add(1) == 10 {
				cancel()
			}
		},
	})
	spec := CampaignSpec{
		Points:           testGrid(40, mvaOnlyBudget),
		Journal:          path,
		Workers:          2,
		BreakerThreshold: -1,
	}
	_, err := RunCampaign(ctx, spec)
	restore()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled campaign: err = %v, want ErrCanceled", err)
	}
	finished := len(journalPoints(t, path))
	if finished >= 40 {
		t.Fatalf("cancellation did not stop the campaign (%d points)", finished)
	}

	spec.Resume = true
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if res.Resumed != finished || res.Computed != 40-finished || res.Failed != 0 {
		t.Fatalf("resume accounting: %+v (journaled %d)", res, finished)
	}
	if got := len(journalPoints(t, path)); got != 40 {
		t.Fatalf("final journal has %d points, want 40", got)
	}
}
