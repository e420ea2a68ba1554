package mva

import (
	"context"
	"math"
	"reflect"
	"testing"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// resultBits flattens every field of r to its bits: Float64bits for
// floats, so −0 and +0 differ, and the value for integer fields.
func resultBits(r Result) []uint64 {
	var out []uint64
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			out = append(out, math.Float64bits(f.Float()))
		case reflect.Int:
			out = append(out, uint64(f.Int()))
		case reflect.Uint8:
			out = append(out, f.Uint())
		default:
			panic("resultBits: unhandled kind " + f.Kind().String())
		}
	}
	return out
}

// freshSolve solves m at n on a scratch no earlier solve has touched.
func freshSolve(t *testing.T, m Model, n int) Result {
	t.Helper()
	res, err := m.solveOnce(context.Background(), n, Options{}, false, new(solveScratch))
	if err != nil {
		t.Fatalf("fresh solve of %v at N=%d: %v", m.Mods, n, err)
	}
	return res
}

// TestPooledDerivationMatchesFreshSolves solves models in the order A,
// B, A, A on one goroutine, so the pooled scratch carries a derivation
// from one solve to the next, and requires every answer to equal a solve
// on a fresh scratch bit for bit. The sequence includes a model with a
// −0 think time right after the same model with +0: the two compare
// equal under ==, but the −0 model's processing power N·τ/R is −0, so a
// reused +0 derivation would show.
func TestPooledDerivationMatchesFreshSolves(t *testing.T) {
	a := Model{Workload: workload.AppendixA(workload.Sharing5)}
	b := Model{Workload: workload.AppendixA(workload.Sharing20), Mods: protocol.Mods(protocol.Mod1, protocol.Mod2)}
	plusZero := a
	plusZero.Workload.Tau = 0
	minusZero := a
	minusZero.Workload.Tau = math.Copysign(0, -1)
	seq := []Model{a, b, a, a, plusZero, minusZero, plusZero, a}

	check := func(how string, solve func(m Model, n int) (Result, error)) {
		for n := 1; n <= 16; n *= 2 {
			for i, m := range seq {
				got, err := solve(m, n)
				if err != nil {
					t.Fatalf("%s: model %d at N=%d: %v", how, i, n, err)
				}
				if gb, wb := resultBits(got), resultBits(freshSolve(t, m, n)); !reflect.DeepEqual(gb, wb) {
					t.Errorf("%s: model %d at N=%d: result bits %x, fresh solve %x", how, i, n, gb, wb)
				}
			}
		}
	}
	check("pool", func(m Model, n int) (Result, error) { return m.Solve(n, Options{}) })
	sc := new(solveScratch)
	check("one scratch", func(m Model, n int) (Result, error) {
		return m.solveOnce(context.Background(), n, Options{}, false, sc)
	})

	if pp := freshSolve(t, minusZero, 4).ProcessingPower; !math.Signbit(pp) {
		t.Fatalf("processing power at τ = −0 is %v, want −0: the sequence cannot tell a reused derivation", pp)
	}
}

// TestSameModelSeesEveryField flips each field of Model in turn — a +0
// float to −0, an integer or flag to another value — and requires
// sameModel to tell the two apart, so a field added to Model, Params or
// Timing cannot be left out of the comparison.
func TestSameModelSeesEveryField(t *testing.T) {
	var base Model
	fields := 0
	var visit func(v reflect.Value)
	visit = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i))
			}
			return
		case reflect.Float64:
			v.SetFloat(math.Copysign(0, -1))
		case reflect.Int:
			v.SetInt(1)
		case reflect.Uint8:
			v.SetUint(1)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("sameModel test: unhandled kind %v", v.Kind())
		}
		fields++
		if sameModel(&base, &Model{}) {
			t.Errorf("field %d: sameModel cannot tell %+v from the zero Model", fields, base)
		}
		v.SetZero()
	}
	visit(reflect.ValueOf(&base).Elem())
	if !sameModel(&base, &Model{}) {
		t.Error("sameModel tells the zero Model from itself")
	}
}
