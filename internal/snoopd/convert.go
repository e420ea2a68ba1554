package snoopd

import (
	"snoopmva"
	"snoopmva/internal/wire"
)

// Conversions between the binary protocol's request envelopes and the
// JSON spec structs. The workload, timing, options and result inside
// them are the root package's types on both transports; only the
// envelopes (Has* flags vs optional pointers) and the protocol/budget
// specs are separate types, and those convert as structs. Both
// transports resolve through the same spec types (and so the same
// validation code and error text), which is what keeps the JSON↔binary
// equivalence suite honest: the wire structs never grow semantics of
// their own. A decoded wire.ProtocolSpec always carries exactly one arm
// (a non-empty Name, or non-nil Mods), so it converts as is.

func workloadFromWire(w wire.WorkloadSpec) WorkloadSpec {
	switch w.Kind {
	case wire.WorkloadAppendixA:
		return WorkloadSpec{AppendixA: &w.AppendixA}
	case wire.WorkloadStress:
		return WorkloadSpec{Stress: true}
	default:
		return WorkloadSpec{Params: &w.Params}
	}
}

func solveFromWire(m *wire.SolveRequest) *SolveRequest {
	req := &SolveRequest{
		Protocol:  ProtocolSpec(m.Protocol),
		Workload:  workloadFromWire(m.Workload),
		N:         m.N,
		TimeoutMS: m.TimeoutMS,
	}
	if m.HasTiming {
		req.Timing = &m.Timing
	}
	if m.HasOptions {
		req.Options = &m.Options
	}
	return req
}

func solveBestFromWire(m *wire.SolveBestRequest) *SolveBestRequest {
	req := &SolveBestRequest{
		Protocol:  ProtocolSpec(m.Protocol),
		Workload:  workloadFromWire(m.Workload),
		N:         m.N,
		TimeoutMS: m.TimeoutMS,
	}
	if m.HasBudget {
		b := BudgetSpec(m.Budget)
		req.Budget = &b
	}
	return req
}

func sweepFromWire(m *wire.SweepRequest) *SweepRequest {
	return &SweepRequest{
		Protocol:  ProtocolSpec(m.Protocol),
		Workload:  workloadFromWire(m.Workload),
		Ns:        m.Ns,
		Parallel:  m.Parallel,
		TimeoutMS: m.TimeoutMS,
	}
}

// The WireSpec helpers build binary-protocol specs that resolve back to
// the given in-memory values — the binary counterparts of SpecForProtocol
// and friends, used by the dispatch WireTransport to put campaign points
// on the wire.

// WireProtocolSpec returns the wire.ProtocolSpec that resolves back to p.
func WireProtocolSpec(p snoopmva.Protocol) wire.ProtocolSpec {
	return wire.ProtocolSpec(SpecForProtocol(p))
}

// WireWorkloadSpec returns the fully spelled-out wire.WorkloadSpec for w.
func WireWorkloadSpec(w snoopmva.Workload) wire.WorkloadSpec {
	return wire.WorkloadSpec{Kind: wire.WorkloadParams, Params: w}
}

// WireBudgetSpec returns the wire budget for b; has is false for the
// zero budget (travels as absent, like the JSON path's nil). It rounds
// exactly as SpecForBudget does.
func WireBudgetSpec(b snoopmva.Budget) (has bool, spec wire.BudgetSpec) {
	if bs := SpecForBudget(b); bs != nil {
		return true, wire.BudgetSpec(*bs)
	}
	return false, wire.BudgetSpec{}
}
