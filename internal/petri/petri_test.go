package petri

import (
	"math"
	"strings"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Simple deterministic cycle: one token fires T (duration d) forever.
func TestDeterministicCycle(t *testing.T) {
	n := NewNet()
	p := n.AddPlace("P", 1)
	tr := n.AddTransition("T", 4, 1)
	n.AddInput(tr, p, 1)
	n.AddOutput(tr, p, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 1 {
		t.Errorf("States = %d, want 1", res.States)
	}
	if !approx(res.Throughput[tr], 0.25, 1e-12) {
		t.Errorf("Throughput = %v, want 0.25", res.Throughput[tr])
	}
	if !approx(res.TimeAvgInFlight[tr], 1, 1e-12) {
		t.Errorf("InFlight = %v, want 1", res.TimeAvgInFlight[tr])
	}
	if !approx(res.TimeAvgMarking[p], 0, 1e-12) {
		t.Errorf("Marking = %v, want 0 (token always in flight)", res.TimeAvgMarking[p])
	}
	if !approx(res.MeanCycle, 4, 1e-12) {
		t.Errorf("MeanCycle = %v, want 4", res.MeanCycle)
	}
}

// Geometric "think" (mean 1/0.4 = 2.5 cycles) followed by a fixed 2-cycle
// service: long-run completion rate must be 1/(2.5+2).
func TestGeometricThinkPlusService(t *testing.T) {
	n := NewNet()
	think := n.AddPlace("think", 1)
	ready := n.AddPlace("ready", 0)
	done := n.AddTransition("think-done", 1, 0.4)
	more := n.AddTransition("think-more", 1, 0.6)
	n.AddInput(done, think, 1)
	n.AddOutput(done, ready, 1)
	n.AddInput(more, think, 1)
	n.AddOutput(more, think, 1)
	serve := n.AddTransition("serve", 2, 1)
	n.AddInput(serve, ready, 1)
	n.AddOutput(serve, think, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (2.5 + 2.0)
	if !approx(res.Throughput[serve], want, 1e-9) {
		t.Errorf("Throughput(serve) = %v, want %v", res.Throughput[serve], want)
	}
	// Thinking occupies 2.5 of every 4.5 cycles.
	if !approx(res.TimeAvgInFlight[done]+res.TimeAvgInFlight[more], 2.5/4.5, 1e-9) {
		t.Errorf("think occupancy = %v, want %v",
			res.TimeAvgInFlight[done]+res.TimeAvgInFlight[more], 2.5/4.5)
	}
}

// Closed single-server queue with two customers and zero think time: the
// server never idles; one customer always waits.
func TestSaturatedServer(t *testing.T) {
	n := NewNet()
	q := n.AddPlace("queue", 2)
	free := n.AddPlace("free", 1)
	s := n.AddTransition("serve", 3, 1)
	n.AddInput(s, q, 1)
	n.AddInput(s, free, 1)
	n.AddOutput(s, q, 1)
	n.AddOutput(s, free, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Throughput[s], 1.0/3.0, 1e-12) {
		t.Errorf("Throughput = %v, want 1/3", res.Throughput[s])
	}
	if !approx(res.TimeAvgMarking[q], 1, 1e-12) {
		t.Errorf("queue length = %v, want 1", res.TimeAvgMarking[q])
	}
	if !approx(res.TimeAvgMarking[free], 0, 1e-12) {
		t.Errorf("free = %v, want 0 (server saturated)", res.TimeAvgMarking[free])
	}
	if !approx(res.TimeAvgInFlight[s], 1, 1e-12) {
		t.Errorf("in flight = %v, want 1", res.TimeAvgInFlight[s])
	}
}

// Immediate branch frequencies: a timed pump feeds a place drained by two
// immediate transitions with weights 1 and 3; their throughputs must split
// 1:3.
func TestBranchFrequencies(t *testing.T) {
	n := NewNet()
	src := n.AddPlace("src", 1)
	mid := n.AddPlace("mid", 0)
	sinkA := n.AddPlace("a", 0)
	sinkB := n.AddPlace("b", 0)
	pump := n.AddTransition("pump", 2, 1)
	n.AddInput(pump, src, 1)
	n.AddOutput(pump, mid, 1)
	ta := n.AddTransition("choose-a", 0, 1)
	n.AddInput(ta, mid, 1)
	n.AddOutput(ta, sinkA, 1)
	tb := n.AddTransition("choose-b", 0, 3)
	n.AddInput(tb, mid, 1)
	n.AddOutput(tb, sinkB, 1)
	// Drain sinks back to src so the net cycles.
	da := n.AddTransition("drain-a", 1, 1)
	n.AddInput(da, sinkA, 1)
	n.AddOutput(da, src, 1)
	db := n.AddTransition("drain-b", 1, 1)
	n.AddInput(db, sinkB, 1)
	n.AddOutput(db, src, 1)

	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := res.Throughput[ta], res.Throughput[tb]
	if !approx(rb/ra, 3, 1e-9) {
		t.Errorf("branch ratio = %v, want 3", rb/ra)
	}
	// Immediate transitions never hold tokens in flight.
	if res.TimeAvgInFlight[ta] != 0 || res.TimeAvgInFlight[tb] != 0 {
		t.Error("immediate transitions should have zero in-flight occupancy")
	}
}

// Multi-token symmetry: two tokens cycling independently double throughput
// when there is no resource contention.
func TestTwoIndependentTokens(t *testing.T) {
	n := NewNet()
	p := n.AddPlace("P", 2)
	tr := n.AddTransition("T", 5, 1)
	n.AddInput(tr, p, 1)
	n.AddOutput(tr, p, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Throughput[tr], 2.0/5.0, 1e-9) {
		t.Errorf("Throughput = %v, want 0.4", res.Throughput[tr])
	}
	if !approx(res.TimeAvgInFlight[tr], 2, 1e-9) {
		t.Errorf("InFlight = %v, want 2", res.TimeAvgInFlight[tr])
	}
}

// Phase-offset states: tokens entering service at different times create
// distinct remaining-time states; the analysis must still balance.
func TestPhaseOffsets(t *testing.T) {
	n := NewNet()
	a := n.AddPlace("a", 1)
	b := n.AddPlace("b", 0)
	t1 := n.AddTransition("t1", 2, 1)
	n.AddInput(t1, a, 1)
	n.AddOutput(t1, b, 1)
	t2 := n.AddTransition("t2", 3, 1)
	n.AddInput(t2, b, 1)
	n.AddOutput(t2, a, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 5.0
	if !approx(res.Throughput[t1], want, 1e-9) || !approx(res.Throughput[t2], want, 1e-9) {
		t.Errorf("throughputs = %v, %v; want %v", res.Throughput[t1], res.Throughput[t2], want)
	}
	if !approx(res.TimeAvgInFlight[t1], 2.0/5.0, 1e-9) {
		t.Errorf("t1 occupancy = %v, want 0.4", res.TimeAvgInFlight[t1])
	}
}

func TestDeadlockDetected(t *testing.T) {
	n := NewNet()
	p := n.AddPlace("p", 1)
	q := n.AddPlace("q", 0)
	tr := n.AddTransition("t", 1, 1)
	n.AddInput(tr, p, 1)
	n.AddOutput(tr, q, 1) // q never drains: after one firing, deadlock
	_, err := n.Analyze(Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestZenoNetDetected(t *testing.T) {
	n := NewNet()
	p := n.AddPlace("p", 1)
	tr := n.AddTransition("loop", 0, 1) // immediate self-loop
	n.AddInput(tr, p, 1)
	n.AddOutput(tr, p, 1)
	_, err := n.Analyze(Options{MaxResolutionDepth: 50})
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("expected Zeno detection, got %v", err)
	}
}

func TestMaxStatesExceeded(t *testing.T) {
	// Two tokens with coprime cycle lengths generate several phase states.
	n := NewNet()
	a := n.AddPlace("a", 1)
	b := n.AddPlace("b", 1)
	t1 := n.AddTransition("t1", 3, 1)
	n.AddInput(t1, a, 1)
	n.AddOutput(t1, a, 1)
	t2 := n.AddTransition("t2", 7, 1)
	n.AddInput(t2, b, 1)
	n.AddOutput(t2, b, 1)
	_, err := n.Analyze(Options{MaxStates: 2})
	if err == nil || !strings.Contains(err.Error(), "state space") {
		t.Errorf("expected state-space error, got %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := NewNet().Validate(); err == nil {
		t.Error("empty net accepted")
	}
	n := NewNet()
	n.AddPlace("p", 0)
	if err := n.Validate(); err == nil {
		t.Error("net without transitions accepted")
	}
	n2 := NewNet()
	n2.AddPlace("p", 0)
	n2.AddTransition("t", 1, 1) // no input arcs
	if err := n2.Validate(); err == nil {
		t.Error("sourceless transition accepted")
	}
	// Stable states store durations and token counts in 32 bits: a longer
	// duration is a validation error, and a larger count, here in a place
	// no transition touches, fails the analysis instead of wrapping.
	for _, c := range []struct {
		name             string
		tokens, duration int
	}{
		{"duration", 0, math.MaxInt32 + 1},
		{"tokens", math.MaxInt32 + 1, 1},
	} {
		n := NewNet()
		p := n.AddPlace("p", 1)
		n.AddPlace("q", c.tokens)
		tr := n.AddTransition("t", c.duration, 1)
		n.AddInput(tr, p, 1)
		n.AddOutput(tr, p, 1)
		if _, err := n.Analyze(Options{}); err == nil || !strings.Contains(err.Error(), "more than a stable state stores") {
			t.Errorf("%s beyond 32 bits: got %v, want an error", c.name, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	n := NewNet()
	p := n.AddPlace("myplace", 2)
	tr := n.AddTransition("mytrans", 1, 1)
	n.AddInput(tr, p, 1)
	if n.Places() != 1 || n.Transitions() != 1 {
		t.Error("counts wrong")
	}
	if n.PlaceName(p) != "myplace" || n.TransName(tr) != "mytrans" {
		t.Error("names wrong")
	}
}

func TestConstructionPanics(t *testing.T) {
	cases := []func(){
		func() { NewNet().AddPlace("p", -1) },
		func() { NewNet().AddTransition("t", -1, 1) },
		func() { NewNet().AddTransition("t", 1, 0) },
		func() { NewNet().AddTransition("t", 1, math.NaN()) },
		func() {
			n := NewNet()
			n.AddPlace("p", 0)
			n.AddInput(TransID(5), 0, 1)
		},
		func() {
			n := NewNet()
			tr := n.AddTransition("t", 1, 1)
			n.AddInput(tr, PlaceID(9), 1)
		},
		func() {
			n := NewNet()
			p := n.AddPlace("p", 0)
			tr := n.AddTransition("t", 1, 1)
			n.AddInput(tr, p, 0)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestStateCountMatchesAnalyze(t *testing.T) {
	n := NewNet()
	a := n.AddPlace("a", 2)
	b := n.AddPlace("b", 0)
	t1 := n.AddTransition("t1", 2, 1)
	n.AddInput(t1, a, 1)
	n.AddOutput(t1, b, 1)
	t2 := n.AddTransition("t2", 3, 1)
	n.AddInput(t2, b, 1)
	n.AddOutput(t2, a, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := n.StateCount(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != res.States {
		t.Errorf("StateCount = %d, Analyze states = %d", cnt, res.States)
	}
	if _, err := n.StateCount(Options{MaxStates: 1}); err == nil {
		t.Error("StateCount should respect MaxStates")
	}
	bad := NewNet()
	if _, err := bad.StateCount(Options{}); err == nil {
		t.Error("StateCount should validate")
	}
}

// Token conservation: in a closed net where every transition returns as
// many tokens as it consumes, the time-average total (places + tokens held
// by in-flight firings) equals the initial count.
func TestTokenConservation(t *testing.T) {
	n := NewNet()
	q := n.AddPlace("queue", 3)
	free := n.AddPlace("free", 1)
	s := n.AddTransition("serve", 4, 1)
	n.AddInput(s, q, 1)
	n.AddInput(s, free, 1)
	n.AddOutput(s, q, 1)
	n.AddOutput(s, free, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := res.TimeAvgMarking[q] + res.TimeAvgMarking[free] + 2*res.TimeAvgInFlight[s]
	if !approx(total, 4, 1e-9) {
		t.Errorf("token total = %v, want 4", total)
	}
}

// GSPN semantics: an immediate transition competing with a timed one for
// the same token always wins.
func TestImmediatePriorityOverTimed(t *testing.T) {
	n := NewNet()
	src := n.AddPlace("src", 1)
	fast := n.AddPlace("fast", 0)
	slow := n.AddPlace("slow", 0)
	imm := n.AddTransition("imm", 0, 1)
	n.AddInput(imm, src, 1)
	n.AddOutput(imm, fast, 1)
	timed := n.AddTransition("timed", 2, 100) // huge weight, but timed
	n.AddInput(timed, src, 1)
	n.AddOutput(timed, slow, 1)
	// Drain both sinks back so the net cycles.
	df := n.AddTransition("drain-fast", 1, 1)
	n.AddInput(df, fast, 1)
	n.AddOutput(df, src, 1)
	ds := n.AddTransition("drain-slow", 1, 1)
	n.AddInput(ds, slow, 1)
	n.AddOutput(ds, src, 1)
	res, err := n.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[timed] != 0 {
		t.Errorf("timed transition fired despite immediate competitor: %v", res.Throughput[timed])
	}
	if res.Throughput[imm] <= 0 {
		t.Errorf("immediate transition starved: %v", res.Throughput[imm])
	}
}
