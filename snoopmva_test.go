package snoopmva

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"snoopmva/internal/protocol"
)

func TestQuickstartPath(t *testing.T) {
	w := AppendixA(Sharing5)
	res, err := Solve(WriteOnce(), w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 4.5 || res.Speedup > 6 {
		t.Errorf("WO 5%% N=10 speedup = %v, expected ~5.2", res.Speedup)
	}
	if res.N != 10 || res.Iterations == 0 || res.R <= 3.5 {
		t.Errorf("result incomplete: %+v", res)
	}
}

func TestAppendixAPanicsOnBadSharing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AppendixA(Sharing(3))
}

func TestWorkloadValidate(t *testing.T) {
	w := AppendixA(Sharing1)
	if err := w.Validate(); err != nil {
		t.Errorf("Appendix A invalid: %v", err)
	}
	w.HSw = 2
	if err := w.Validate(); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestStressWorkload(t *testing.T) {
	w := StressWorkload()
	if !w.FixedParams {
		t.Error("stress workload must pin its parameters")
	}
	if w.CsupplySro != 1 || w.PSw != 0.2 {
		t.Errorf("stress values wrong: %+v", w)
	}
	if _, err := Solve(WriteOnce(), w, 8); err != nil {
		t.Errorf("stress workload should solve: %v", err)
	}
}

func TestProtocolConstructors(t *testing.T) {
	cases := []struct {
		p    Protocol
		name string
		mods []int
	}{
		{WriteOnce(), "Write-Once", nil},
		{Synapse(), "Synapse", []int{3}},
		{Berkeley(), "Berkeley", []int{2, 3}},
		{Illinois(), "Illinois", []int{1, 2, 3}},
		{Dragon(), "Dragon", []int{1, 2, 3, 4}},
		{RWB(), "RWB", []int{1, 3, 4}},
		{WriteThrough(), "Write-Through", []int{4}},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("name = %q, want %q", c.p.Name(), c.name)
		}
		got := c.p.Mods()
		if len(got) != len(c.mods) {
			t.Errorf("%s mods = %v, want %v", c.name, got, c.mods)
			continue
		}
		for i := range got {
			if got[i] != c.mods[i] {
				t.Errorf("%s mods = %v, want %v", c.name, got, c.mods)
			}
		}
	}
	if !Dragon().HasMod(4) || Dragon().HasMod(9) || WriteOnce().HasMod(1) {
		t.Error("HasMod wrong")
	}
	if WriteOnce().String() == "" {
		t.Error("empty protocol string")
	}
}

func TestWithMods(t *testing.T) {
	p := WithMods(1, 4)
	if !p.HasMod(1) || !p.HasMod(4) || p.HasMod(2) {
		t.Errorf("WithMods(1,4) = %v", p.Mods())
	}
	if _, err := Solve(p, AppendixA(Sharing5), 4); err != nil {
		t.Errorf("mods 1+4 should solve: %v", err)
	}
	if _, err := Solve(WithMods(4), AppendixA(Sharing5), 4); err == nil {
		t.Error("mod 4 alone should be rejected")
	}
	if _, err := Solve(WithMods(7), AppendixA(Sharing5), 4); err == nil {
		t.Error("invalid mod number should be rejected")
	}
}

func TestProtocolByNameAndList(t *testing.T) {
	p, ok := ProtocolByName("dragon")
	if !ok || p.Name() != "Dragon" {
		t.Errorf("ProtocolByName = %v, %v", p, ok)
	}
	if _, ok := ProtocolByName("zzz"); ok {
		t.Error("unknown name resolved")
	}
	if len(Protocols()) != 7 {
		t.Errorf("Protocols() = %d entries", len(Protocols()))
	}
}

func TestSweepAndCompare(t *testing.T) {
	w := AppendixA(Sharing5)
	rs, err := Sweep(context.Background(), Direct, WriteOnce(), w, []int{1, 5, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || !(rs[0].Speedup < rs[1].Speedup && rs[1].Speedup < rs[2].Speedup) {
		t.Errorf("sweep not increasing: %+v", rs)
	}
	if _, err := Sweep(context.Background(), Direct, WriteOnce(), w, []int{0}, 1); err == nil {
		t.Error("sweep should propagate errors")
	}
	cs, err := Compare(context.Background(), Direct, []Protocol{WriteOnce(), Illinois(), Dragon()}, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(cs[0].Speedup <= cs[1].Speedup && cs[1].Speedup <= cs[2].Speedup) {
		t.Errorf("protocol ordering broken: %v %v %v", cs[0].Speedup, cs[1].Speedup, cs[2].Speedup)
	}
	if _, err := Compare(context.Background(), Direct, []Protocol{WithMods(9)}, w, 4); err == nil {
		t.Error("compare should propagate errors")
	}
}

func TestSolveWithOptionsAndTiming(t *testing.T) {
	w := AppendixA(Sharing20)
	base, err := SolveWithContext(context.Background(), WriteOnce(), w, Timing{}, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := SolveWithContext(context.Background(), WriteOnce(), w, Timing{}, 10, Options{
		NoCacheInterference: true, NoMemoryInterference: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Speedup < base.Speedup {
		t.Error("ablations should not reduce speedup")
	}
	slow := DefaultTiming()
	slow.DMem = 12
	slowRes, err := SolveWithContext(context.Background(), WriteOnce(), w, slow, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.Speedup >= base.Speedup {
		t.Error("slower memory should reduce speedup")
	}
}

func TestSolveDetailedAgreesWithSolve(t *testing.T) {
	w := AppendixA(Sharing5)
	g, err := SolveDetailedContext(context.Background(), WriteOnce(), w, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SolveWithContext(context.Background(), WriteOnce(), w, Timing{}, 4, Options{
		NoCacheInterference: true, NoMemoryInterference: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Speedup-g.Speedup) / g.Speedup; rel > 0.035 {
		t.Errorf("MVA %.3f vs detailed %.3f (rel %.1f%%)", m.Speedup, g.Speedup, rel*100)
	}
	if g.States == 0 {
		t.Error("detailed result missing state count")
	}
	if _, err := SolveDetailedContext(context.Background(), WithMods(4), w, 2); err == nil {
		t.Error("invalid protocol accepted")
	}
}

// SolveDetailedContext reports the net's bus wait by Little's law over
// its bus-queue places: no wait with one processor, and a wait that
// grows with every processor added, for every protocol the net models.
func TestDetailedBusWaitGrowsWithN(t *testing.T) {
	w := AppendixA(Sharing5)
	for _, ms := range protocol.AllModSets() {
		p := Protocol{inner: protocol.Protocol{Mods: ms}}
		prev := 0.0
		for n := 1; n <= 6; n++ {
			g, err := SolveDetailedContext(context.Background(), p, w, n)
			if err != nil {
				t.Fatalf("%v N=%d: %v", p, n, err)
			}
			if n == 1 && g.BusWait != 0 {
				t.Errorf("%v N=1: bus wait %v, want exactly 0", p, g.BusWait)
			}
			if n > 1 && !(g.BusWait > prev) {
				t.Errorf("%v N=%d: bus wait %v, want above N=%d's %v", p, n, g.BusWait, n-1, prev)
			}
			prev = g.BusWait
		}
	}
}

// The GTPN's answer at the paper's 5% sharing and N=8: its speedup is the
// one the net has always given, and its bus wait is the term the
// detailed-vs-MVA comparison splits out (the MVA without cache or memory
// interference waits 10.92 cycles here).
func TestDetailedWriteOnceN8(t *testing.T) {
	g, err := SolveDetailedContext(context.Background(), WriteOnce(), AppendixA(Sharing5), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("speedup %.4f, bus wait %.2f, method %s", g.Speedup, g.BusWait, g.Method); got != "speedup 5.1638, bus wait 9.19, method gtpn" {
		t.Errorf("got %s, want speedup 5.1638, bus wait 9.19, method gtpn", got)
	}
	if pp := 8 * AppendixA(Sharing5).Tau / g.R; g.ProcessingPower != pp {
		t.Errorf("processing power %v, want N·τ/R = %v", g.ProcessingPower, pp)
	}
}

func TestSimulate(t *testing.T) {
	w := AppendixA(Sharing5)
	r, err := SimulateContext(context.Background(), Illinois(), w, 6, SimOptions{Seed: 9, MeasureCycles: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 0 || r.Speedup > 6 {
		t.Errorf("sim speedup %v out of range", r.Speedup)
	}
	if !(r.SpeedupLow <= r.Speedup && r.Speedup <= r.SpeedupHigh) {
		t.Errorf("CI [%v, %v] does not bracket %v", r.SpeedupLow, r.SpeedupHigh, r.Speedup)
	}
	if err := r.Observed.Validate(); err != nil {
		t.Errorf("observed quantities out of range: %v: %+v", err, r.Observed)
	}
	if r.Method != MethodSimulation || !(r.BusWait > 0) || !(r.MemUtilization > 0) {
		t.Errorf("method %q, bus wait %v, memory utilization %v: want a simulation answer with both measured", r.Method, r.BusWait, r.MemUtilization)
	}
	if _, err := SimulateContext(context.Background(), WithMods(4), w, 2, SimOptions{}); err == nil {
		t.Error("invalid protocol accepted")
	}
	one, err := SimulateContext(context.Background(), Illinois(), w, 1, SimOptions{Seed: 9, MeasureCycles: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if one.BusWait != 0 {
		t.Errorf("N=1: bus wait %v, want exactly 0 (a lone processor never queues)", one.BusWait)
	}
}

// The simulator's observed workload is a model input: for every named
// protocol it is marked verbatim, validates, and the MVA solves it.
func TestSimulatedWorkloadSolves(t *testing.T) {
	w := AppendixA(Sharing5)
	for _, p := range Protocols() {
		r, err := SimulateContext(context.Background(), p, w, 4, SimOptions{Seed: 3, WarmupCycles: 2000, MeasureCycles: 20000})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !r.Observed.FixedParams {
			t.Errorf("%s: observed workload not marked FixedParams", p.Name())
		}
		if err := r.Observed.Validate(); err != nil {
			t.Errorf("%s: observed workload invalid: %v", p.Name(), err)
			continue
		}
		res, err := SolveWithContext(context.Background(), p, *r.Observed, Timing{}, 4, Options{})
		if err != nil {
			t.Errorf("%s: solving the observed workload: %v", p.Name(), err)
			continue
		}
		if math.IsNaN(res.Speedup) || math.IsInf(res.Speedup, 0) || res.Speedup <= 0 {
			t.Errorf("%s: speedup on the observed workload = %v", p.Name(), res.Speedup)
		}
	}
}

func TestSharingInternalError(t *testing.T) {
	if _, err := Sharing(7).internal(); err == nil {
		t.Error("bad sharing accepted")
	}
}

func TestDefaultTimingValues(t *testing.T) {
	d := DefaultTiming()
	if d.TSupply != 1 || d.DMem != 3 || d.BlockSize != 4 || d.TBlock != 4 {
		t.Errorf("defaults wrong: %+v", d)
	}
}

func TestExplainFacade(t *testing.T) {
	var sb strings.Builder
	if err := Explain(&sb, Illinois(), AppendixA(Sharing5), 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup") || !strings.Contains(sb.String(), "eq 13") {
		t.Errorf("breakdown incomplete:\n%s", sb.String())
	}
	if err := Explain(&sb, WithMods(9), AppendixA(Sharing5), 8); err == nil {
		t.Error("bad protocol accepted")
	}
}
