package snoopmva

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"snoopmva/internal/markov"
	"snoopmva/internal/mva"
	"snoopmva/internal/petri"
	"snoopmva/internal/workload"
)

// The error taxonomy of the public API. Every error returned by the
// package-level solver entry points wraps exactly one of these sentinels
// (or is a *PanicError from a recovered internal panic), so callers can
// classify failures with errors.Is and react per class — reject invalid
// configurations, retry with damping, fall back to a cheaper model, or
// propagate cancellation.
var (
	// ErrInvalidInput marks caller-supplied model input that fails
	// validation: probabilities outside [0,1], stream partitions that do
	// not sum to one, non-positive system sizes, bad protocol modification
	// sets, and the like.
	ErrInvalidInput = errors.New("snoopmva: invalid input")

	// ErrNoConvergence marks an iterative solver (the MVA fixed point or
	// the GTPN's Gauss–Seidel steady-state solve) that exhausted its budget
	// without reaching tolerance.
	ErrNoConvergence = errors.New("snoopmva: solver did not converge")

	// ErrDiverged marks a numerical blow-up: the MVA fixed point produced
	// a NaN or Inf iterate. errors.As against *mva.DivergenceError — via
	// the wrapped cause — exposes the offending iterate.
	ErrDiverged = errors.New("snoopmva: solver diverged")

	// ErrStateExplosion marks a GTPN reachability analysis that exceeded
	// its state budget — the failure mode that motivates the MVA model.
	ErrStateExplosion = errors.New("snoopmva: state space exploded")

	// ErrCanceled marks a solve stopped by context cancellation or
	// deadline expiry.
	ErrCanceled = errors.New("snoopmva: solve canceled")
)

// PanicError is a panic that escaped an internal package and was recovered
// at the public API boundary, converted into an error carrying the stack at
// the panic site. Its presence is a bug report: internal invariant
// violations are supposed to be unreachable.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("snoopmva: internal panic: %v", e.Value)
}

// classify wraps err with the public sentinel matching its internal cause.
// Errors already carrying a public sentinel pass through unchanged, so
// delegation chains do not double-wrap; unrecognized errors also pass
// through (they are not forced into a wrong class).
func classify(err error) error {
	if err == nil {
		return nil
	}
	for _, s := range []error{ErrInvalidInput, ErrNoConvergence, ErrDiverged, ErrStateExplosion, ErrCanceled} {
		if errors.Is(err, s) {
			return err
		}
	}
	switch {
	case errors.Is(err, workload.ErrInvalid):
		return fmt.Errorf("%w: %w", ErrInvalidInput, err)
	case errors.Is(err, mva.ErrDiverged):
		return fmt.Errorf("%w: %w", ErrDiverged, err)
	case errors.Is(err, mva.ErrNoConvergence), errors.Is(err, markov.ErrNoConvergence):
		return fmt.Errorf("%w: %w", ErrNoConvergence, err)
	case errors.Is(err, petri.ErrStateExplosion):
		return fmt.Errorf("%w: %w", ErrStateExplosion, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// guard is deferred by every public solver entry point: it converts an
// escaped panic into a *PanicError and maps the outgoing error onto the
// public taxonomy.
func guard(errp *error) {
	if r := recover(); r != nil {
		*errp = &PanicError{Value: r, Stack: debug.Stack()}
	}
	*errp = classify(*errp)
}
