package hierarchy

import (
	"errors"
	"math"
	"testing"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

func baseCfg(c, k int) Config {
	return Config{
		Clusters:           c,
		PerCluster:         k,
		Workload:           workload.AppendixA(workload.Sharing5),
		GlobalMissFraction: 0.3,
		GlobalBcFraction:   0.2,
	}
}

func TestValidation(t *testing.T) {
	bad := baseCfg(0, 4)
	if _, err := Solve(bad, Options{}); err == nil {
		t.Error("clusters=0 accepted")
	}
	bad = baseCfg(2, 0)
	if _, err := Solve(bad, Options{}); err == nil {
		t.Error("per-cluster=0 accepted")
	}
	bad = baseCfg(2, 2)
	bad.GlobalMissFraction = 1.5
	if _, err := Solve(bad, Options{}); err == nil {
		t.Error("bad fraction accepted")
	}
	bad = baseCfg(2, 2)
	bad.GlobalSpeedRatio = -1
	if _, err := Solve(bad, Options{}); err == nil {
		t.Error("negative speed ratio accepted")
	}
	bad = baseCfg(2, 2)
	bad.Workload.HSw = 3
	if _, err := Solve(bad, Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
	bad = baseCfg(2, 2)
	bad.Mods = protocol.Mods(protocol.Mod4)
	if _, err := Solve(bad, Options{}); err == nil {
		t.Error("impractical mods accepted")
	}
}

// With a single cluster and no global traffic, the hierarchical model must
// reduce to the flat model exactly.
func TestDegeneratesToFlatModel(t *testing.T) {
	for _, k := range []int{1, 4, 10} {
		cfg := baseCfg(1, k)
		cfg.GlobalMissFraction = 0
		cfg.GlobalBcFraction = 0
		h, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		flat, err := (mva.Model{Workload: cfg.Workload}).Solve(k, mva.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(h.Speedup-flat.Speedup) / flat.Speedup; rel > 1e-6 {
			t.Errorf("K=%d: hierarchical %v vs flat %v (rel %.2e)", k, h.Speedup, flat.Speedup, rel)
		}
		if h.UGlobalBus != 0 || h.WGlobalBus != 0 {
			t.Errorf("K=%d: phantom global traffic: %+v", k, h)
		}
	}
}

func TestBasicSanity(t *testing.T) {
	res, err := Solve(baseCfg(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessors != 16 {
		t.Errorf("total = %d", res.TotalProcessors)
	}
	if res.Speedup <= 0 || res.Speedup > 16 {
		t.Errorf("speedup %v out of (0, 16]", res.Speedup)
	}
	if res.ULocalBus < 0 || res.ULocalBus > 1 || res.UGlobalBus < 0 || res.UGlobalBus > 1 {
		t.Errorf("utilizations out of range: %+v", res)
	}
	if res.R < 3.5 {
		t.Errorf("R = %v below τ+T_supply", res.R)
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

// The headline motivation: past single-bus saturation, adding a second bus
// level buys real speedup. A 4x8 hierarchy must beat a flat 32-processor
// bus when escalation is modest.
func TestHierarchyBeatsSaturatedFlatBus(t *testing.T) {
	cfg := baseCfg(4, 8)
	cfg.GlobalMissFraction = 0.15
	cfg.GlobalBcFraction = 0.1
	h, err := Solve(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := (mva.Model{Workload: cfg.Workload}).Solve(32, mva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Speedup <= flat.Speedup {
		t.Errorf("hierarchy %v should beat saturated flat bus %v", h.Speedup, flat.Speedup)
	}
}

// Full escalation makes the hierarchy strictly worse than the same traffic
// on one bus: every request pays both buses.
func TestFullEscalationIsWorseThanModestEscalation(t *testing.T) {
	modest := baseCfg(4, 4)
	modest.GlobalMissFraction = 0.1
	modest.GlobalBcFraction = 0.1
	all := baseCfg(4, 4)
	all.GlobalMissFraction = 1
	all.GlobalBcFraction = 1
	rm, err := Solve(modest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Solve(all, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Speedup >= rm.Speedup {
		t.Errorf("full escalation %v should be worse than modest %v", ra.Speedup, rm.Speedup)
	}
}

func TestSpeedupGrowsWithClusters(t *testing.T) {
	prev := 0.0
	for _, c := range []int{1, 2, 4, 8} {
		cfg := baseCfg(c, 4)
		cfg.GlobalMissFraction = 0.1
		cfg.GlobalBcFraction = 0.05
		res, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Speedup < prev-1e-9 {
			t.Errorf("speedup fell adding clusters: C=%d %v < %v", c, res.Speedup, prev)
		}
		prev = res.Speedup
	}
}

func TestSlowGlobalBusHurts(t *testing.T) {
	fast := baseCfg(4, 4)
	slow := baseCfg(4, 4)
	slow.GlobalSpeedRatio = 3
	rf, err := Solve(fast, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Solve(slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Speedup >= rf.Speedup {
		t.Errorf("slower global bus should hurt: %v vs %v", rs.Speedup, rf.Speedup)
	}
}

func TestCrossover(t *testing.T) {
	shapes := [][2]int{{1, 16}, {2, 8}, {4, 4}, {8, 2}}
	results := make([]Result, len(shapes))
	for i, s := range shapes {
		cfg := baseCfg(s[0], s[1])
		cfg.GlobalMissFraction = 0.15
		cfg.GlobalBcFraction = 0.1
		r, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Clusters != s[0] || r.PerCluster != s[1] {
			t.Errorf("shape mismatch at %d: %+v", i, r)
		}
		if r.Speedup <= 0 {
			t.Errorf("bad speedup at %d", i)
		}
		results[i] = r
	}
	// Some clustered shape must beat the flat 1x16 arrangement at this
	// escalation level.
	best := results[0].Speedup
	for _, r := range results[1:] {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	if best <= results[0].Speedup {
		t.Errorf("no clustered shape beat the flat bus: %+v", results)
	}
}

func TestConverges(t *testing.T) {
	res, err := Solve(baseCfg(8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 || res.Iterations > 5000 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

// TestErrorsCarrySentinels pins the error taxonomy the public facade
// classifies: bad configurations wrap workload.ErrInvalid and an
// exhausted iteration budget wraps mva.ErrNoConvergence.
func TestErrorsCarrySentinels(t *testing.T) {
	invalid := []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.PerCluster = 0 },
		func(c *Config) { c.GlobalMissFraction = 1.5 },
		func(c *Config) { c.GlobalBcFraction = math.NaN() },
		func(c *Config) { c.GlobalSpeedRatio = -1 },
	}
	for i, mutate := range invalid {
		cfg := baseCfg(2, 2)
		mutate(&cfg)
		if _, err := Solve(cfg, Options{}); !errors.Is(err, workload.ErrInvalid) {
			t.Errorf("case %d: err = %v, want workload.ErrInvalid", i, err)
		}
	}
	if _, err := Solve(baseCfg(8, 8), Options{MaxIter: 1}); !errors.Is(err, mva.ErrNoConvergence) {
		t.Errorf("one-iteration budget: err = %v, want mva.ErrNoConvergence", err)
	}
}
