package snoopmva

// Resume-contract tests: the typed spec-mismatch refusal, and the
// workers>1 half of the determinism contract (DESIGN.md §13) — a
// parallel campaign resumed after a crash yields the same result *set*
// as an uninterrupted run, even though journal record order may differ
// run to run.

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snoopmva/internal/faultinject"
)

func TestResumeSpecMismatchIsTypedAndActionable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	grid := testGrid(4, mvaOnlyBudget)
	if _, err := RunCampaign(context.Background(), CampaignSpec{
		Points: grid, Journal: path, Workers: 1, BreakerThreshold: -1,
	}); err != nil {
		t.Fatal(err)
	}

	// Same point count, different grid content: only the fingerprint can
	// catch this.
	other := testGrid(4, mvaOnlyBudget)
	other[2].N += 100
	_, err := RunCampaign(context.Background(), CampaignSpec{
		Points: other, Journal: path, Resume: true, Workers: 1, BreakerThreshold: -1,
	})
	if err == nil {
		t.Fatal("resume with a different grid succeeded")
	}
	var mismatch *SpecMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %T (%v), want *SpecMismatchError", err, err)
	}
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("SpecMismatchError should match ErrInvalidInput; got %v", err)
	}
	if mismatch.Path != path {
		t.Errorf("Path = %q, want %q", mismatch.Path, path)
	}
	if mismatch.JournalFingerprint == "" || mismatch.SpecFingerprint == "" ||
		mismatch.JournalFingerprint == mismatch.SpecFingerprint {
		t.Errorf("fingerprints not distinguishing: journal %q, spec %q",
			mismatch.JournalFingerprint, mismatch.SpecFingerprint)
	}
	if mismatch.JournalFingerprint != CampaignFingerprint(grid) {
		t.Errorf("JournalFingerprint = %q, want the original grid's %q",
			mismatch.JournalFingerprint, CampaignFingerprint(grid))
	}
	if mismatch.SpecFingerprint != CampaignFingerprint(other) {
		t.Errorf("SpecFingerprint = %q, want the resuming grid's %q",
			mismatch.SpecFingerprint, CampaignFingerprint(other))
	}
	// The message must name both fingerprints so the operator can tell
	// which side changed.
	msg := err.Error()
	if !strings.Contains(msg, mismatch.JournalFingerprint) || !strings.Contains(msg, mismatch.SpecFingerprint) {
		t.Errorf("message does not name both fingerprints: %q", msg)
	}
}

func TestCampaignCrashResumeParallelWorkersSetEquality(t *testing.T) {
	// With Workers > 1, completion order — and hence journal record
	// order — is scheduling-dependent, so byte-identity is off the table.
	// The contract is set equality: after crash + resume, every point's
	// result equals the uninterrupted (and the sequential) run's.
	points := testGrid(24, mvaOnlyBudget)
	dir := t.TempDir()

	ref, err := RunCampaign(context.Background(), CampaignSpec{
		Points: points, Workers: 1, BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}

	crashPath := filepath.Join(dir, "crash.jsonl")
	restore := faultinject.Activate(&faultinject.Set{
		CampaignCrash: func(recorded int) bool { return recorded >= 7 },
	})
	_, err = RunCampaign(context.Background(), CampaignSpec{
		Points: points, Journal: crashPath, Workers: 4, BreakerThreshold: -1,
	})
	restore()
	if !errors.Is(err, errCampaignCrash) {
		t.Fatalf("crash run: err = %v, want injected crash", err)
	}
	crashed := journalPoints(t, crashPath)
	if len(crashed) == 0 {
		t.Fatal("crash run journaled nothing")
	}

	res, err := RunCampaign(context.Background(), CampaignSpec{
		Points: points, Journal: crashPath, Resume: true, Workers: 4, BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatalf("parallel resume: %v", err)
	}
	if res.Resumed != len(crashed) || res.Resumed+res.Computed != len(points) {
		t.Fatalf("resume accounting: resumed %d (want %d), computed %d", res.Resumed, len(crashed), res.Computed)
	}

	// Result-set equality against the sequential reference, point by
	// point and order-independent over the journal.
	for i := range points {
		want, got := ref.Results[i], res.Results[i]
		want.Resumed, got.Resumed = false, false
		if !reflect.DeepEqual(want, got) {
			t.Errorf("point %d: want %+v, got %+v", i, want, got)
		}
	}
	final := journalPoints(t, crashPath) // fails on duplicate indexes
	if len(final) != len(points) {
		t.Fatalf("journal has %d points, want %d", len(final), len(points))
	}
	for i := range points {
		pr, ok := final[i]
		if !ok {
			t.Fatalf("point %d missing from journal", i)
		}
		if pr.Speedup != ref.Results[i].Speedup || pr.Err != ref.Results[i].Err {
			t.Errorf("journal point %d diverged from reference: %+v vs %+v", i, pr, ref.Results[i])
		}
	}
}

// TestJournalPointRecordsRoundTrip pins the journal's point-record bytes.
// A point record is a Result with the point's bookkeeping, so a line in
// the format earlier releases wrote (before the record carried every
// measure) must still decode, reading zero in the measures it lacks, and
// re-encode to the current format; a current-format line must re-encode
// byte for byte, so a resumed journal keeps the bytes its points were
// written with. A point the circuit breaker trimmed is pinned by value
// only: where its skipped_stages key falls is free, since decoding
// ignores key order.
func TestJournalPointRecordsRoundTrip(t *testing.T) {
	reencodes := func(line, want string) {
		t.Helper()
		var rec campaignRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Errorf("re-encoded point record differs:\n got %s\nwant %s", b, want)
		}
	}
	// Each earlier-format line (empty where a point shape is new) and the
	// current line it re-encodes to.
	for _, c := range []struct{ earlier, current string }{
		{`{"kind":"point","point":{"index":0,"attempts":1,"method":"gtpn","n":1,"speedup":0.8660740245839502,"r":4.041225000000838,"bus_utilization":0.13392597541584253}}`,
			`{"kind":"point","point":{"index":0,"attempts":1,"method":"gtpn","n":1,"speedup":0.8660740245839502,"processing_power":0,"r":4.041225000000838,"bus_utilization":0.13392597541584253,"bus_wait":0,"mem_utilization":0,"mem_wait":0,"iterations":0}}`},
		{`{"kind":"point","point":{"index":1,"attempts":1,"method":"mva","degraded":true,"fallback_reason":"gtpn: petri: state space exceeded budget: 62 states reached (MaxStates=60)","n":2,"speedup":1.6893746103502525,"r":4.143545165834304,"bus_utilization":0.2612376495676621}}`,
			`{"kind":"point","point":{"index":1,"attempts":1,"method":"mva","degraded":true,"fallback_reason":"gtpn: petri: state space exceeded budget: 62 states reached (MaxStates=60)","n":2,"speedup":1.6893746103502525,"processing_power":0,"r":4.143545165834304,"bus_utilization":0.2612376495676621,"bus_wait":0,"mem_utilization":0,"mem_wait":0,"iterations":0}}`},
		{`{"kind":"point","point":{"index":7,"attempts":3,"n":12,"speedup":0,"r":0,"bus_utilization":0,"err":"snoopmva: SolveBest exhausted all models (gtpn: injected fault): mva: snoopmva: solver did not converge"}}`,
			`{"kind":"point","point":{"index":7,"attempts":3,"n":12,"speedup":0,"processing_power":0,"r":0,"bus_utilization":0,"bus_wait":0,"mem_utilization":0,"mem_wait":0,"iterations":0,"err":"snoopmva: SolveBest exhausted all models (gtpn: injected fault): mva: snoopmva: solver did not converge"}}`},
		{"", `{"kind":"point","point":{"index":2,"attempts":1,"method":"simulation","n":4,"speedup":3.5,"processing_power":3.25,"r":4.25,"bus_utilization":0.5,"bus_wait":1.75,"mem_utilization":0.125,"mem_wait":0,"iterations":0,"speedup_low":3.375,"speedup_high":3.625,"observed":{"tau":2.5,"p_private":0.75,"p_sro":0.125,"p_sw":0.125,"h_private":0.95,"h_sro":0.94,"h_sw":0.93,"r_private":0.7,"r_sw":0.6,"amod_private":0.5,"amod_sw":0.4,"csupply_sro":0.3,"csupply_sw":0.2,"wb_csupply":0.1,"rep_p":0.15,"rep_sw":0.25,"fixed_params":true}}}`},
		{"", `{"kind":"point","point":{"index":5,"attempts":1,"method":"gtpn","n":3,"speedup":2.75,"processing_power":2.5,"r":4.75,"bus_utilization":0.375,"bus_wait":0.25,"mem_utilization":0,"mem_wait":0,"iterations":0,"states":27}}`},
	} {
		if c.earlier != "" {
			reencodes(c.earlier, c.current)
		}
		reencodes(c.current, c.current)
	}

	skipped := `{"kind":"point","point":{"index":3,"attempts":1,"method":"mva","skipped_stages":["gtpn"],"n":4,"speedup":3.2507819273733722,"r":4.306656156204235,"bus_utilization":0.5026869853265168}}`
	var want PointResult
	want.Index, want.Attempts, want.SkippedStages = 3, 1, []string{stageGTPN}
	want.Method, want.N = MethodMVA, 4
	want.Speedup, want.R, want.BusUtilization = 3.2507819273733722, 4.306656156204235, 0.5026869853265168
	var rec campaignRecord
	if err := json.Unmarshal([]byte(skipped), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "point" || rec.Point == nil || !reflect.DeepEqual(*rec.Point, want) {
		t.Fatalf("decoded %+v, want point %+v", rec, want)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var again campaignRecord
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if again.Point == nil || !reflect.DeepEqual(*again.Point, want) {
		t.Fatalf("re-encoded %s decodes to %+v, want %+v", b, again.Point, want)
	}
	t.Logf("skipped-stages point re-encodes as %s", b)
}
