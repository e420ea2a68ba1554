//go:build !race

package snoopd

import (
	"testing"

	"snoopmva"
	"snoopmva/internal/wire"
)

// TestWireItemAllocationBound pins the binary request decode. A solve
// frame with a named protocol and spelled-out workload (the benchmark
// and dispatch shape) and a solvebest frame with a budget (the dispatch
// shape) each become a BatchItem in at most 4 allocations: the request,
// the protocol name, the workload parameters and, for solvebest, the
// budget.
func TestWireItemAllocationBound(t *testing.T) {
	s := newTestServer(t, Config{})
	proto := SpecForProtocol(snoopmva.Illinois())
	wl := SpecForWorkload(snoopmva.AppendixA(snoopmva.Sharing5))
	frames := map[string]wire.Frame{
		"solve": {Type: wire.TypeSolveReq, Payload: wire.AppendSolveRequest(nil, 1,
			&SolveRequest{Protocol: proto, Workload: wl, N: 8})},
		"solvebest": {Type: wire.TypeSolveBestReq, Payload: wire.AppendSolveBestRequest(nil, 2,
			&SolveBestRequest{Protocol: proto, Workload: wl, N: 4, Budget: &BudgetSpec{MaxStates: -1, SimCycles: -1}})},
	}
	for name, f := range frames {
		got := testing.AllocsPerRun(100, func() {
			if _, ok := s.wireItem(f); !ok {
				t.Fatalf("%s: decode failed", name)
			}
		})
		if got > 4 {
			t.Errorf("%s: wireItem = %v allocs/op, want <= 4", name, got)
		}
	}
}
