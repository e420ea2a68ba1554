// Package faultinject provides deterministic fault hooks for exercising
// the robustness layer — the graceful-degradation ladder, cancellation
// paths, numerical guardrails and panic recovery — without depending on
// timing, load, or pathological inputs to trigger the failures naturally.
//
// The hooks are a test-only interface: production code never installs a
// Set, and each instrumentation point costs a single atomic pointer load
// when no hooks are active. Tests install hooks with Activate and must
// restore the previous state (usually via defer) before finishing, since
// the registry is process-global. Tests that activate hooks must not run
// in parallel with other tests of the same package.
package faultinject

import (
	"sync/atomic"
	"time"
)

// Set is one collection of fault hooks. A nil member leaves the
// corresponding instrumentation point inactive.
type Set struct {
	// The three MVA hooks are consulted by the MVA's fixed-point driver
	// (internal/mva's fixedPoint).
	//
	// MVAEnter is called once per MVA fixed-point solve, when its
	// iteration starts (after input validation; the damping ladder's
	// fallback rungs do not call it again), with the system size (used to
	// observe scheduling, e.g. that a failed sweep stops issuing work).
	MVAEnter func(n int)
	// MVAStall returns true to suppress convergence of the MVA fixed
	// point at the given iteration, forcing an iteration-stall
	// (ErrNoConvergence) failure.
	MVAStall func(iter int) bool
	// MVAPoison returns a replacement for the first coordinate of the
	// MVA fixed point's image and true to poison it at the given
	// iteration (typically with NaN or Inf), exercising the ErrDiverged
	// guardrail. The poison value is supplied by the test so production
	// code never constructs a non-finite sentinel itself.
	MVAPoison func(iter int) (float64, bool)
	// PetriExplode returns true to force a state-explosion error from the
	// reachability BFS once it has reached the given number of states.
	PetriExplode func(states int) bool
	// SimSlowCycle is called at every cancellation checkpoint of the
	// cycle simulator (every ~10k cycles) with the current cycle; tests
	// use it to slow the simulator down deterministically so budgets and
	// deadlines trip.
	SimSlowCycle func(cycle int64)
	// SimFault returns a non-nil error to abort the cycle simulator at a
	// cancellation checkpoint, exercising hard mid-stage failures (the
	// slow-stage counterpart is SimSlowCycle).
	SimFault func(cycle int64) error
	// PointFault is consulted by the campaign runner before each solve
	// attempt of a grid point; a non-nil error fails that attempt. Tests
	// key on (index, attempt) to inject transient errors — failing the
	// first k attempts exercises retry — or permanent ones.
	PointFault func(index, attempt int) error
	// JournalAppendFault is consulted by the journal before writing each
	// record, with the journal path. A non-nil error makes the append fail
	// after writing only a prefix of the record — the short write a full
	// disk produces — exercising partial-record rollback and the campaign
	// runner's journaling latch.
	JournalAppendFault func(path string) error
	// JournalRotateFault is consulted by Rotate before each fallible stage
	// ("write", "sync", "close", "rename", "dirsync", "reopen") with the
	// journal path; a non-nil error fails that stage. Tests use it to
	// assert that a failed rotation leaves no temp-file residue and that
	// post-rename failures latch the journal broken.
	JournalRotateFault func(path, stage string) error
	// SolveDelay is consulted once per flat MVA solve (before the
	// fixed-point iteration) with the system size; a positive duration stalls
	// the solve for that long, interruptible by the solve context. Tests
	// use it to shrink a server's effective capacity deterministically —
	// the overload storms slow every solve to a known service time so
	// goodput and shed-rate assertions have a stable denominator.
	SolveDelay func(n int) time.Duration
	// HTTPFault is consulted by the dispatch HTTP transport before each
	// request, with the worker base address and route (e.g.
	// "/v1/solvebest", "/healthz"). A non-nil error fails the request
	// without touching the network — a dropped packet or partition — and a
	// positive delay stalls the request first, modeling a slow or
	// congested link (delay then error composes into a timeout-then-drop
	// path). Tests key on addr to partition individual workers and on
	// route to let health probes through while solves are dropped, or vice
	// versa.
	HTTPFault func(addr, route string) (delay time.Duration, err error)
	// CampaignCrash is consulted by the campaign runner after each
	// journaled record with the number of records this run has written;
	// returning true makes the runner stop abruptly — no further points,
	// no journal finalization — simulating a process crash for
	// resume-determinism tests (the out-of-process variant is the CI
	// kill-and-resume smoke).
	CampaignCrash func(recorded int) bool
}

var active atomic.Pointer[Set]

// Activate installs s as the process-wide hook set and returns a function
// restoring the previous set.
func Activate(s *Set) (restore func()) {
	old := active.Swap(s)
	return func() { active.Store(old) }
}

// Hooks returns the active hook set, or nil when fault injection is off.
func Hooks() *Set { return active.Load() }
