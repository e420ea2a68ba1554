package cachesim

import (
	"testing"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// maxExtraAllocs bounds what a run may allocate beyond a 50k-cycle run
// when it is 8× longer. The per-class response reservoirs are the only
// state that still grows with run length (towards reservoirCap); they
// account for 12 allocations at Write-Once N = 6 (2-vCPU amd64 host), and
// 8 more is the margin. The bus and response queues reuse their backing
// arrays, so they add nothing: when they resliced from the front, a
// 400k-cycle run allocated 46,725 times (82,386 with split transactions).
const maxExtraAllocs = 20

// TestRunAllocationsDoNotGrowWithCycles pins the queues' reuse: a run's
// allocation count is set-up plus a small constant, not proportional to
// the cycles simulated.
func TestRunAllocationsDoNotGrowWithCycles(t *testing.T) {
	for _, split := range []bool{false, true} {
		allocs := func(cycles int64) float64 {
			cfg := Config{N: 6, Protocol: protocol.WriteOnce, Workload: workload.AppendixA(workload.Sharing5),
				Seed: 1, WarmupCycles: 5000, MeasureCycles: cycles, SplitTransactions: split}
			return testing.AllocsPerRun(2, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(50_000), allocs(400_000)
		if long-short > maxExtraAllocs {
			t.Errorf("split=%v: 400k cycles allocate %v times, 50k cycles %v: %v more, want <= %d",
				split, long, short, long-short, maxExtraAllocs)
		}
	}
}
