package cachesim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// flat renders every field of r, floats bitwise.
func flat(r *Result) string {
	return strings.Join(flatten("", reflect.ValueOf(*r), nil), " ")
}

// TestUnmetPrecisionIsTheFixedRun pins the cap's code path: a run whose
// target is never met is bitwise the run without one, on a sample of the
// seeded grid (every protocol, N = 1..9, split transactions included).
func TestUnmetPrecisionIsTheFixedRun(t *testing.T) {
	cases := seededCases()
	for i := 0; i < len(cases); i += 13 {
		c := cases[i]
		fixed, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cfg := c.cfg
		cfg.RelPrecision = 1e-9
		capped, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := flat(capped), flat(fixed); got != want {
			t.Errorf("%s: unmet target\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestPrecisionStopsEveryProtocol checks a ±1 % run of every named protocol
// at N = 4 and 6 with the default cap: it stops before the cap, after at
// least a third of it, on a quarter-batch boundary, with an interval that
// meets the target and an observed workload the models accept.
func TestPrecisionStopsEveryProtocol(t *testing.T) {
	const target, capCycles = 0.01, 300000
	for _, p := range protocol.Named() {
		for _, n := range []int{4, 6} {
			name := fmt.Sprintf("%s/n%d", p.Name, n)
			res, err := Run(Config{N: n, Protocol: p, Workload: workload.AppendixA(workload.Sharing5), Seed: 1, RelPrecision: target})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			quarter := int64(capCycles / Batches / 4)
			if res.Cycles >= capCycles || 3*res.Cycles < capCycles || res.Cycles%quarter != 0 {
				t.Errorf("%s: stopped after %d cycles, want a multiple of %d in [%d, %d)", name, res.Cycles, quarter, capCycles/3, capCycles)
			}
			if got := res.SpeedupCI.RelHalfWidth(); got > target {
				t.Errorf("%s: relative half-width %.4f > target %.2f", name, got, target)
			}
			if res.SpeedupCI.N != res.Cycles/quarter {
				t.Errorf("%s: interval over %d samples, want %d quarter-batches", name, res.SpeedupCI.N, res.Cycles/quarter)
			}
			if err := res.Observed.Workload.Validate(); err != nil {
				t.Errorf("%s: observed workload invalid: %v", name, err)
			}
		}
	}
}

// TestPrecisionStopIsDeterministic pins what journal resume relies on: a
// seed gives the same stop cycle and a bitwise-equal Result.
func TestPrecisionStopIsDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := Config{N: 4, Protocol: protocol.Illinois, Workload: workload.AppendixA(workload.Sharing20), Seed: seed, RelPrecision: 0.01}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || flat(a) != flat(b) {
			t.Errorf("seed %d: runs diverged: %d vs %d cycles\n%s\n%s", seed, a.Cycles, b.Cycles, flat(a), flat(b))
		}
	}
}
