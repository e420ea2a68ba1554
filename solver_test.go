package snoopmva

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestSolverImplementationsAgree is the contract of the Solver
// interface: Direct and a CachedSolver return bitwise-equal results and
// identical error text through every method and every free function
// over a Solver, cold and (for the cache) again from resident entries.
func TestSolverImplementationsAgree(t *testing.T) {
	ctx := context.Background()
	w := AppendixA(Sharing5)
	bad := w
	bad.HPrivate = 2 // probability outside [0,1]
	mvaOnly := Budget{MaxStates: -1, SimCycles: -1}

	cases := []struct {
		name string
		run  func(Solver) (any, error)
		// check, when set, adds per-case assertions on Direct's outcome.
		check func(t *testing.T, res any, err error)
	}{
		{"SolveWithContext", func(s Solver) (any, error) {
			return s.SolveWithContext(ctx, Illinois(), w, DefaultTiming(), 8, Options{SplitTransactionBus: true})
		}, nil},
		{"SolveWithContext invalid size", func(s Solver) (any, error) {
			return s.SolveWithContext(ctx, Illinois(), w, Timing{}, 0, Options{})
		}, nil},
		{"SolveWithContext invalid workload", func(s Solver) (any, error) {
			return s.SolveWithContext(ctx, Illinois(), bad, Timing{}, 4, Options{})
		}, nil},
		{"SolveBest", func(s Solver) (any, error) {
			return s.SolveBest(ctx, WriteOnce(), w, 8, mvaOnly)
		}, nil},
		{"SolveBest degraded", func(s Solver) (any, error) {
			return s.SolveBest(ctx, WriteOnce(), w, 4, Budget{MaxStates: 50, SimCycles: -1})
		}, func(t *testing.T, res any, err error) {
			if b := res.(Result); err != nil || !b.Degraded || b.Method != MethodMVA {
				t.Errorf("tiny state budget: %+v, %v; want a degraded MVA answer", b, err)
			}
		}},
		{"SolveBest invalid size", func(s Solver) (any, error) {
			return s.SolveBest(ctx, WriteOnce(), w, 0, mvaOnly)
		}, nil},
		{"SweepParallel", func(s Solver) (any, error) {
			return Sweep(ctx, s, Illinois(), w, []int{1, 2, 4, 8, 16, 32}, 0)
		}, nil},
		{"SweepParallel invalid sizes", func(s Solver) (any, error) {
			return Sweep(ctx, s, Illinois(), w, []int{4, 0, -1}, 0)
		}, func(t *testing.T, _ any, err error) {
			for _, frag := range []string{"N=0", "N=-1"} {
				if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), frag) {
					t.Errorf("err = %v, want ErrInvalidInput naming %s", err, frag)
				}
			}
		}},
		{"Compare", func(s Solver) (any, error) {
			return Compare(ctx, s, []Protocol{WriteOnce(), Illinois(), Dragon()}, w, 8)
		}, nil},
		// Two invalid protocols among valid ones: every protocol is
		// attempted and each failure is wrapped as "snoopmva: <protocol>:
		// ..." and joined, so errors.Is classification and per-protocol
		// attribution work through every Solver.
		{"Compare invalid protocols", func(s Solver) (any, error) {
			return Compare(ctx, s, []Protocol{WriteOnce(), WithMods(9), Illinois(), WithMods(7)}, w, 8)
		}, func(t *testing.T, res any, err error) {
			if res.([]Result) != nil {
				t.Error("failed comparison returned partial results")
			}
			if !errors.Is(err, ErrInvalidInput) {
				t.Errorf("errors.Is(err, ErrInvalidInput) is false: %v", err)
			}
			for _, frag := range []string{"snoopmva: ", WithMods(9).String(), WithMods(7).String()} {
				if err == nil || !strings.Contains(err.Error(), frag) {
					t.Errorf("error %v does not name %q", err, frag)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := tc.run(Direct)
			if tc.check != nil {
				tc.check(t, want, wantErr)
			}
			cache := NewCachedSolver(0)
			for _, pass := range []string{"cold", "resident"} {
				got, err := tc.run(cache)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s cache: result %+v, Direct %+v", pass, got, want)
				}
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Errorf("%s cache: error text diverges:\n  cached: %v\n  direct: %v", pass, err, wantErr)
				}
			}
		})
	}
}
