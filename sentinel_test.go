package snoopmva

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"snoopmva/internal/faultinject"
)

// TestSentinelsAcrossPublicEntryPoints asserts that every public
// error-returning entry point participates in the error taxonomy: its
// failure paths — invalid input, a faultinject-forced divergence, and
// cancellation where the entry point accepts a context — yield errors that
// errors.Is can classify against the package sentinels.
func TestSentinelsAcrossPublicEntryPoints(t *testing.T) {
	good := AppendixA(Sharing5)
	bad := good
	bad.HPrivate = 2 // probability outside [0,1]

	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()

	// poison forces the MVA fixed point to produce a NaN iterate on its
	// second iteration; every MVA-backed entry point must surface that as
	// ErrDiverged.
	poison := func() func() {
		return faultinject.Activate(&faultinject.Set{
			MVAPoison: func(iter int) (float64, bool) { return math.NaN(), iter == 2 },
		})
	}

	// stall suppresses MVA convergence so the fixed point is still running
	// when it reaches its periodic cancellation checkpoint; without it a
	// small model converges before ever observing the canceled context.
	stall := func() func() {
		return faultinject.Activate(&faultinject.Set{
			MVAStall: func(int) bool { return true },
		})
	}

	// Row names keep one label per path through an entry point: "SolveWith"
	// rows call SolveWithContext without a deadline, "Sweep" and
	// "SweepContext" rows run the sweep on one worker and "SweepParallel"
	// rows on GOMAXPROCS workers, and "SolveDetailed" and "Simulate" rows
	// call the detailed models without a deadline.
	cases := []struct {
		name  string
		setup func() func() // optional fault hook; returns restore
		call  func() error
		want  error
	}{
		{"Solve invalid size", nil,
			func() error { _, err := Solve(WriteOnce(), good, 0); return err }, ErrInvalidInput},
		{"Solve invalid workload", nil,
			func() error { _, err := Solve(WriteOnce(), bad, 4); return err }, ErrInvalidInput},
		{"Solve diverged", poison,
			func() error { _, err := Solve(WriteOnce(), good, 4); return err }, ErrDiverged},
		{"SolveWith invalid size", nil,
			func() error {
				_, err := SolveWithContext(bg, WriteOnce(), good, DefaultTiming(), 0, Options{})
				return err
			}, ErrInvalidInput},
		{"SolveWith diverged", poison,
			func() error {
				_, err := SolveWithContext(bg, WriteOnce(), good, DefaultTiming(), 4, Options{})
				return err
			}, ErrDiverged},
		{"SolveWithContext canceled", stall,
			func() error {
				_, err := SolveWithContext(canceled, WriteOnce(), good, DefaultTiming(), 4, Options{})
				return err
			}, ErrCanceled},
		{"Sweep invalid size", nil,
			func() error { _, err := Sweep(bg, Direct, WriteOnce(), good, []int{2, 0}, 1); return err }, ErrInvalidInput},
		{"Sweep diverged", poison,
			func() error { _, err := Sweep(bg, Direct, WriteOnce(), good, []int{2, 4}, 1); return err }, ErrDiverged},
		{"SweepContext canceled", stall,
			func() error { _, err := Sweep(canceled, Direct, WriteOnce(), good, []int{2, 4}, 1); return err }, ErrCanceled},
		{"SweepParallel invalid size", nil,
			func() error { _, err := Sweep(bg, Direct, WriteOnce(), good, []int{0}, 0); return err }, ErrInvalidInput},
		{"SweepParallel diverged", poison,
			func() error { _, err := Sweep(bg, Direct, WriteOnce(), good, []int{2, 4}, 0); return err }, ErrDiverged},
		{"Compare invalid workload", nil,
			func() error { _, err := Compare(bg, Direct, []Protocol{WriteOnce()}, bad, 4); return err }, ErrInvalidInput},
		{"Compare diverged", poison,
			func() error {
				_, err := Compare(bg, Direct, []Protocol{WriteOnce(), Illinois()}, good, 4)
				return err
			}, ErrDiverged},
		{"SolveDetailed invalid size", nil,
			func() error { _, err := SolveDetailedContext(bg, WriteOnce(), good, 0); return err }, ErrInvalidInput},
		{"SolveDetailedContext canceled", nil,
			func() error { _, err := SolveDetailedContext(canceled, WriteOnce(), good, 4); return err }, ErrCanceled},
		{"Simulate invalid workload", nil,
			func() error { _, err := SimulateContext(bg, WriteOnce(), bad, 4, SimOptions{}); return err }, ErrInvalidInput},
		{"SimulateContext canceled", nil,
			func() error { _, err := SimulateContext(canceled, WriteOnce(), good, 4, SimOptions{}); return err }, ErrCanceled},
		{"Explain invalid size", nil,
			func() error { return Explain(io.Discard, WriteOnce(), good, 0) }, ErrInvalidInput},
		{"Explain diverged", poison,
			func() error { return Explain(io.Discard, WriteOnce(), good, 4) }, ErrDiverged},
		{"SolveBest invalid size", nil,
			func() error {
				_, err := SolveBest(bg, WriteOnce(), good, 0, Budget{MaxStates: -1, SimCycles: -1})
				return err
			}, ErrInvalidInput},
		{"SolveBest canceled", stall,
			func() error {
				_, err := SolveBest(canceled, WriteOnce(), good, 4, Budget{MaxStates: -1, SimCycles: -1})
				return err
			}, ErrCanceled},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.setup != nil {
				restore := c.setup()
				defer restore()
			}
			err := c.call()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, not classifiable as %v", err, c.want)
			}
		})
	}
}
