package snoopmva

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
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

// TestCampaignPointFaultFailsThatPointOnce injects a fault into two
// points: each fails after one attempt and is recorded as failed, and the
// campaign goes on to solve every other point.
func TestCampaignPointFaultFailsThatPointOnce(t *testing.T) {
	var calls [8]atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		PointFault: func(index int) error {
			calls[index].Add(1)
			if index == 3 || index == 5 {
				return fmt.Errorf("injected fault at point %d", index)
			}
			return nil
		},
	})
	defer restore()

	spec := CampaignSpec{
		Points:           testGrid(len(calls), mvaOnlyBudget),
		Workers:          1,
		BreakerThreshold: -1,
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	for i, got := range res.Results {
		if n := calls[i].Load(); n != 1 || got.Attempts != 1 {
			t.Errorf("point %d: fault hook consulted %d times, %d attempts; want 1 and 1", i, n, got.Attempts)
		}
		if i == 3 || i == 5 {
			if want := fmt.Sprintf("injected fault at point %d", i); got.Err != want {
				t.Errorf("faulted point %d: Err = %q, want %q", i, got.Err, want)
			}
		} else if got.Err != "" || got.Method != MethodMVA {
			t.Errorf("healthy point %d: %+v", i, got)
		}
	}
	if res.Failed != 2 || res.Computed != len(calls) {
		t.Fatalf("aggregate: %+v", res)
	}
}

func TestCampaignPermanentErrorsAreNotRetried(t *testing.T) {
	grid := testGrid(4, mvaOnlyBudget)
	grid[2].Workload.PPrivate = 2.5 // invalid: stream partition broken
	spec := CampaignSpec{
		Points:           grid,
		Workers:          1,
		BreakerThreshold: -1,
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

// TestCampaignPointDeadlineFailsThePoint runs a GTPN point at N = 10
// (about 0.57 s of work on a 2-vCPU host) and a 10M-cycle simulator point
// under a 50 ms point deadline. Each point must be journaled as failed
// after one attempt, with the deadline in its error, and must end within
// the deadline plus the solvers' 100 ms cancellation bound. The solve runs
// on the worker's own goroutine, so none is left behind.
func TestCampaignPointDeadlineFailsThePoint(t *testing.T) {
	const deadline = 50 * time.Millisecond
	baseline := runtime.NumGoroutine()
	// With one worker, points run in index order on one goroutine: a
	// point starts when the fault hook sees it and ends when its record
	// reaches the journal (appends[0] is the header's).
	var (
		starts  [2]time.Time
		appends []time.Time
	)
	restore := faultinject.Activate(&faultinject.Set{
		PointFault:         func(index int) error { starts[index] = time.Now(); return nil },
		JournalAppendFault: func(string) error { appends = append(appends, time.Now()); return nil },
	})
	defer restore()

	w := AppendixA(Sharing5)
	path := filepath.Join(t.TempDir(), "c.jsonl")
	spec := CampaignSpec{
		Points: []CampaignPoint{
			{Protocol: WriteOnce(), Workload: w, N: 10, Budget: Budget{SimCycles: -1}},
			{Protocol: WriteOnce(), Workload: w, N: 8, Budget: Budget{MaxStates: -1, SimCycles: 10_000_000}},
		},
		Journal:          path,
		Workers:          1,
		BreakerThreshold: -1,
		PointTimeout:     deadline,
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if res.Failed != 2 {
		t.Fatalf("%d points failed, want both: %+v", res.Failed, res.Results)
	}
	if len(appends) != 3 {
		t.Fatalf("%d journal appends, want the header and two points", len(appends))
	}
	journaled := journalPoints(t, path)
	for i := range spec.Points {
		got, ok := journaled[i]
		if !ok {
			t.Fatalf("point %d not journaled", i)
		}
		if got.Attempts != 1 || !strings.Contains(got.Err, "deadline exceeded") {
			t.Errorf("point %d: attempts %d, err %q; want 1 attempt failed on its deadline", i, got.Attempts, got.Err)
		}
		if took := appends[i+1].Sub(starts[i]); took > deadline+100*time.Millisecond {
			t.Errorf("point %d took %v, want at most %v", i, took, deadline+100*time.Millisecond)
		}
	}

	giveUp := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(giveUp) {
			t.Fatalf("goroutines: %d, baseline %d: a point's solve outlived the campaign", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
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
