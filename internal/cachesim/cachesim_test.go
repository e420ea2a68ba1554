package cachesim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

func quickCfg(n int, p protocol.Protocol, s workload.Sharing, seed uint64) Config {
	return Config{
		N:             n,
		Protocol:      p,
		Workload:      workload.AppendixA(s),
		Seed:          seed,
		WarmupCycles:  10000,
		MeasureCycles: 120000,
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := quickCfg(4, protocol.WriteOnce, workload.Sharing5, 42)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Speedup != b.Speedup || a.Completions != b.Completions || a.UBus != b.UBus {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completions == a.Completions && c.Speedup == a.Speedup {
		t.Error("different seeds produced identical runs")
	}
}

func TestValidation(t *testing.T) {
	base := quickCfg(2, protocol.WriteOnce, workload.Sharing5, 1)
	bad := base
	bad.N = 0
	if _, err := Run(bad); err == nil {
		t.Error("N=0 accepted")
	}
	bad = base
	bad.Workload.HSw = 2
	if _, err := Run(bad); err == nil {
		t.Error("invalid workload accepted")
	}
	bad = base
	bad.Workload.Tau = 0.3
	bad.RawParams = true
	if _, err := New(bad); err == nil {
		t.Error("τ<1 accepted")
	}
	bad = base
	bad.Protocol = protocol.Protocol{Name: "m4only", Mods: protocol.Mods(protocol.Mod4)}
	if _, err := Run(bad); err == nil {
		t.Error("impractical protocol accepted")
	}
	bad = base
	bad.MeasureCycles = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative measure cycles accepted")
	}
	for _, prec := range []float64{-0.01, math.NaN()} {
		bad = base
		bad.RelPrecision = prec
		if _, err := Run(bad); err == nil {
			t.Errorf("relative precision %v accepted", prec)
		}
	}
	bad = base
	bad.Timing = workload.DefaultTiming()
	bad.Timing.DMem = -1
	if _, err := Run(bad); err == nil {
		t.Error("invalid timing accepted")
	}
}

// TestValidateBoundsN pins the system-size bound: an N whose per-block
// arrays would take terabytes is refused by Validate, before anything is
// allocated, with an error that names the bound.
func TestValidateBoundsN(t *testing.T) {
	cfg := quickCfg(1<<20, protocol.WriteOnce, workload.Sharing5, 1)
	err := cfg.Validate()
	if !errors.Is(err, workload.ErrInvalid) {
		t.Fatalf("N=%d: err = %v, want workload.ErrInvalid", cfg.N, err)
	}
	if !strings.Contains(err.Error(), "outside 1..128") {
		t.Errorf("error %q does not name the bound", err)
	}
	cfg.N = MaxN
	if err := cfg.withDefaults().Validate(); err != nil {
		t.Errorf("N=MaxN refused: %v", err)
	}
}

func TestBasicSanity(t *testing.T) {
	res, err := Run(quickCfg(6, protocol.WriteOnce, workload.Sharing5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 || res.Speedup > 6 {
		t.Errorf("speedup %v out of (0, N]", res.Speedup)
	}
	if res.UBus < 0 || res.UBus > 1 || res.UMem < 0 || res.UMem > 1 {
		t.Errorf("utilizations out of range: %v %v", res.UBus, res.UMem)
	}
	if res.Completions <= 0 {
		t.Error("no completions")
	}
	if res.R < 3.5 {
		t.Errorf("R = %v below τ+T_supply", res.R)
	}
	if res.MeanQueue < 0 || res.MeanBusWait < 0 {
		t.Error("negative queue stats")
	}
	if res.SpeedupCI.N < 2 {
		t.Error("no batch-means confidence interval")
	}
	if math.Abs(res.SpeedupCI.Mean-res.Speedup)/res.Speedup > 0.1 {
		t.Errorf("batch CI mean %v far from point estimate %v", res.SpeedupCI.Mean, res.Speedup)
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

// The detailed simulator and the MVA agree well below saturation (the
// simulator's amod/csupply/replacement behavior is emergent, so wide
// agreement is not expected; see DESIGN.md §3).
func TestAgreesWithMVABelowSaturation(t *testing.T) {
	for _, s := range workload.Sharings() {
		for _, n := range []int{1, 4, 8} {
			res, err := Run(quickCfg(n, protocol.WriteOnce, s, 31))
			if err != nil {
				t.Fatal(err)
			}
			m, err := (mva.Model{Workload: workload.AppendixA(s)}).Solve(n, mva.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(m.Speedup-res.Speedup) / res.Speedup
			if rel > 0.10 {
				t.Errorf("%v N=%d: sim %.3f vs MVA %.3f (rel %.1f%%)",
					s, n, res.Speedup, m.Speedup, rel*100)
			}
		}
	}
}

// The simulator must reproduce the canonical protocol ordering of the
// independent evaluations: write-through is worst, Write-Once next, and the
// full modification stacks (Illinois/Dragon) best.
func TestProtocolOrdering(t *testing.T) {
	speedup := func(p protocol.Protocol) float64 {
		res, err := Run(quickCfg(10, p, workload.Sharing5, 99))
		if err != nil {
			t.Fatal(err)
		}
		return res.Speedup
	}
	wt := speedup(protocol.WriteThrough)
	wo := speedup(protocol.WriteOnce)
	il := speedup(protocol.Illinois)
	dr := speedup(protocol.Dragon)
	if !(wt < wo && wo < il && il <= dr*1.02) {
		t.Errorf("ordering broken: WT=%.3f WO=%.3f Illinois=%.3f Dragon=%.3f", wt, wo, il, dr)
	}
}

// Coherence invariants must hold throughout runs of every named protocol.
func TestInvariantsAllProtocols(t *testing.T) {
	for _, p := range protocol.Named() {
		cfg := quickCfg(4, p, workload.Sharing20, 5)
		cfg.MeasureCycles = 20000
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		s.SetInvariantChecks(true)
		if _, err := s.Run(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: final state: %v", p.Name, err)
		}
	}
}

func TestObservedQuantities(t *testing.T) {
	res, err := Run(quickCfg(8, protocol.WriteOnce, workload.Sharing20, 77))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Observed
	w := o.Workload
	// Effective hit rates track the configured targets (invalidations can
	// only lower them).
	if math.Abs(w.HPrivate-0.95) > 0.02 {
		t.Errorf("private hit rate %v, want ~0.95", w.HPrivate)
	}
	if w.HSw > 0.52 {
		t.Errorf("sw hit rate %v should not exceed target 0.5 by much", w.HSw)
	}
	// Every observed fraction lies in [0,1] and the stream mix sums to 1.
	if err := w.Validate(); err != nil {
		t.Errorf("observed workload invalid: %v", err)
	}
	// wb_csupply is the dirty share of cache-supplied misses, so the
	// dirty-supply fraction wb_csupply × csupply cannot exceed csupply.
	if w.WbCsupply*w.CsupplySw > w.CsupplySw {
		t.Error("dirty-supply fraction cannot exceed csupply")
	}
	if o.Misses == 0 || o.Writebacks == 0 || o.WriteWords == 0 {
		t.Errorf("expected Write-Once activity: %+v", o)
	}
	if o.Invalidations != 0 || o.Updates != 0 {
		t.Errorf("Write-Once should not issue invalidates/updates: %+v", o)
	}
}

func TestProtocolBusOpMix(t *testing.T) {
	// Synapse (mod 3) replaces write-words with invalidates.
	res, err := Run(quickCfg(4, protocol.Synapse, workload.Sharing5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed.WriteWords != 0 || res.Observed.Invalidations == 0 {
		t.Errorf("Synapse op mix wrong: %+v", res.Observed)
	}
	// Dragon (mod 4) issues update writes, never invalidates.
	res, err = Run(quickCfg(4, protocol.Dragon, workload.Sharing5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed.Updates == 0 || res.Observed.Invalidations != 0 {
		t.Errorf("Dragon op mix wrong: %+v", res.Observed)
	}
	// Write-through never writes back blocks.
	res, err = Run(quickCfg(4, protocol.WriteThrough, workload.Sharing5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed.Writebacks != 0 {
		t.Errorf("write-through wrote back %d blocks", res.Observed.Writebacks)
	}
}

// Mod 1's effect is visible in the simulator: private blocks fill
// exclusive, so first writes need no bus operation and broadcast traffic
// drops.
func TestMod1ReducesBroadcasts(t *testing.T) {
	wo, err := Run(quickCfg(6, protocol.WriteOnce, workload.Sharing1, 8))
	if err != nil {
		t.Fatal(err)
	}
	m1 := protocol.Protocol{Name: "WO+1", Mods: protocol.Mods(protocol.Mod1)}
	r1, err := Run(quickCfg(6, m1, workload.Sharing1, 8))
	if err != nil {
		t.Fatal(err)
	}
	bc0 := wo.Observed.WriteWords + wo.Observed.Invalidations + wo.Observed.Updates
	bc1 := r1.Observed.WriteWords + r1.Observed.Invalidations + r1.Observed.Updates
	if bc1 >= bc0/2 {
		t.Errorf("mod1 broadcasts %d not well below WO %d (1%% sharing: almost all writes are private)", bc1, bc0)
	}
	if r1.Speedup <= wo.Speedup {
		t.Errorf("mod1 speedup %.3f should beat WO %.3f", r1.Speedup, wo.Speedup)
	}
}

func TestSaturationCapsSpeedup(t *testing.T) {
	r10, err := Run(quickCfg(10, protocol.WriteOnce, workload.Sharing5, 4))
	if err != nil {
		t.Fatal(err)
	}
	r20, err := Run(quickCfg(20, protocol.WriteOnce, workload.Sharing5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r20.Speedup > r10.Speedup*1.2 {
		t.Errorf("speedup should saturate: S(10)=%.3f S(20)=%.3f", r10.Speedup, r20.Speedup)
	}
	if r20.UBus < 0.9 {
		t.Errorf("bus should be saturated at N=20: U=%.3f", r20.UBus)
	}
}

func TestSingleProcessorNoSharingEffects(t *testing.T) {
	res, err := Run(quickCfg(1, protocol.WriteOnce, workload.Sharing5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Observed.Workload; w.CsupplySro != 0 || w.CsupplySw != 0 {
		t.Errorf("single processor cannot have cache supply: sro %v, sw %v", w.CsupplySro, w.CsupplySw)
	}
	if res.MeanBusWait > 1e-9 {
		t.Errorf("single processor should never queue for the bus: wait %v", res.MeanBusWait)
	}
	if res.Speedup <= 0.7 || res.Speedup > 1 {
		t.Errorf("N=1 speedup %v outside (0.7, 1]", res.Speedup)
	}
}

// The stream mix and read ratios are drawn, not produced by the protocol,
// so the observed values must match the generating parameters within
// sampling error (4 binomial standard errors, with the completed requests
// standing in for the sample size).
func TestObservedDrawsMatchGeneration(t *testing.T) {
	for _, p := range protocol.Named() {
		cfg := quickCfg(4, p, workload.Sharing20, 13)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, got := cfg.params(), res.Observed.Workload
		refs := float64(res.Completions)
		for _, c := range []struct {
			name       string
			got, want  float64
			sampleSize float64
		}{
			{"p_private", got.PPrivate, gen.PPrivate, refs},
			{"p_sro", got.PSro, gen.PSro, refs},
			{"p_sw", got.PSw, gen.PSw, refs},
			{"r_private", got.RPrivate, gen.RPrivate, refs * gen.PPrivate},
			{"r_sw", got.RSw, gen.RSw, refs * gen.PSw},
		} {
			se := math.Sqrt(c.want * (1 - c.want) / c.sampleSize)
			if math.Abs(c.got-c.want) > 4*se {
				t.Errorf("%s: %s = %.4f, generated from %.4f (4σ = %.4f)", p.Name, c.name, c.got, c.want, 4*se)
			}
		}
	}
}

// The block pools are laid out shared-writable, shared read-only, then
// private; classOf names each pool's first and last block accordingly.
func TestClassString(t *testing.T) {
	sro := int32(workload.SWBlocks)
	priv := sro + workload.SROBlocks
	for _, c := range []struct {
		bid  int32
		want string
	}{
		{0, "sw"}, {sro - 1, "sw"},
		{sro, "sro"}, {priv - 1, "sro"},
		{priv, "private"}, {priv + workload.PrivBlocks - 1, "private"},
	} {
		if got := classOf(c.bid).String(); got != c.want {
			t.Errorf("classOf(%d) = %q, want %q", c.bid, got, c.want)
		}
	}
}
