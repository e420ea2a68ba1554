package mva

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// flatAnswersSHA256 is the SHA-256 of every flat-model answer the pin
// below produces: the Float64bits of each float field of each Result and
// of the model inputs behind it (Derived and Interference, see
// hashAnswer), its integer fields, and the error text of any failed solve.
const flatAnswersSHA256 = "250f45cb8a9142e46f8247dec61d397959358f41b3231430ee289c307c1bd5e4"

// TestFlatAnswersBitwisePinned pins the flat solver's answers bit for
// bit over seeded random configurations, at the default ladder, at the
// paper's plain substitution (Damping 1), under-relaxed (Damping 0.5),
// and on the ladder's fallback rungs (a budget too small for any rung,
// and a first rung stalled by the MVAStall hook so the damped rungs
// restart from the cold state). A refactor of the iteration that moves any answer by one ulp, or changes
// an iteration count or an error, fails here.
//
// Only amd64 is pinned: other architectures may fuse x*y+z into one FMA
// and round differently.
func TestFlatAnswersBitwisePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bitwise pin is recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	const draws = 2000
	rng := rand.New(rand.NewSource(19))
	modSets := protocol.AllModSets()
	h := sha256.New()
	for i := 0; i < draws; i++ {
		m, o, n := oracleModel(t, rng, modSets)
		record := func(res Result, err error) { hashAnswer(h, m, res, err) }
		for _, damping := range []float64{0, 1, 0.5} {
			opts := o
			opts.Damping = damping
			record(m.Solve(n, opts))
		}
		opts := o
		switch i % 4 {
		case 1:
			opts.MaxIter = 6
			record(m.Solve(n, opts))
		case 2:
			opts.MaxIter = 400
			calls := 0
			restore := faultinject.Activate(&faultinject.Set{
				MVAStall: func(int) bool { calls++; return calls <= opts.MaxIter },
			})
			record(m.Solve(n, opts))
			restore()
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != flatAnswersSHA256 {
		t.Errorf("flat answers hash to %s, pinned %s", got, flatAnswersSHA256)
	}
}

// hashAnswer feeds one solve's outcome of m into h. The stream is the one
// the pin was recorded with, when Result still carried its model inputs:
// m.Derive() and its Interference(res.N) go in right after
// NInterference, where those fields were, and zeros where the result is
// the zero Result (an error exit before or instead of the iterate).
func hashAnswer(h hash.Hash, m Model, res Result, err error) {
	var buf [8]byte
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
			h.Write(buf[:])
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
			h.Write(buf[:])
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			binary.LittleEndian.PutUint64(buf[:], v.Uint())
			h.Write(buf[:])
		case reflect.Bool:
			fmt.Fprint(h, v.Bool())
		default:
			panic("hashAnswer: unhandled kind " + v.Kind().String())
		}
	}
	var d workload.Derived
	var iv workload.Interference
	if res.N != 0 {
		var derr error
		if d, derr = m.Derive(); derr != nil {
			panic("hashAnswer: a solved model fails to derive: " + derr.Error())
		}
		iv = d.Interference(res.N)
	}
	rv := reflect.ValueOf(res)
	for i := 0; i < rv.NumField(); i++ {
		walk(rv.Field(i))
		if rv.Type().Field(i).Name == "NInterference" {
			walk(reflect.ValueOf(iv))
			walk(reflect.ValueOf(d))
		}
	}
	if err != nil {
		io.WriteString(h, err.Error())
	}
}
