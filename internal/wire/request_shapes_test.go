package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"snoopmva"
)

const requestShapesPath = "testdata/request_shapes.txt"

// requestShape is one request frame as a caller actually sends it.
type requestShape struct {
	name string
	typ  FrameType
	msg  any
}

// requestShapes are the request frames callers send that the one
// populated sample per frame type in golden_frames.txt does not cover:
// absent optional parts, the empty mod set, the zero workload spec and
// an empty size list.
func requestShapes() []requestShape {
	params := &snoopmva.Workload{
		Tau: 2.5, PPrivate: 0.7, PSro: 0.2, PSw: 0.1,
		HPrivate: 0.95, HSro: 0.9, HSw: 0.85,
		RPrivate: 0.75, RSw: 0.5, AmodPrivate: 0.3, AmodSw: 0.2,
		CsupplySro: 0.4, CsupplySw: 0.6, WbCsupply: 0.5,
		RepP: 0.05, RepSw: 0.01,
	}
	return []requestShape{
		// snoopbench and the serving tests: a named preset, an appendix
		// level, no timing or options.
		{"solve_appendix_bare", TypeSolveReq, &seqReq[SolveRequest]{1, SolveRequest{
			Protocol: ProtocolSpec{Name: "Illinois"},
			Workload: WorkloadSpec{AppendixA: intp(5)},
			N:        8,
		}}},
		// The benchmark and dispatch shape: a named preset with the
		// workload spelled out.
		{"solve_params_named", TypeSolveReq, &seqReq[SolveRequest]{2, SolveRequest{
			Protocol: ProtocolSpec{Name: "Illinois"},
			Workload: WorkloadSpec{Params: params},
			N:        12,
		}}},
		{"solvebest_no_budget", TypeSolveBestReq, &seqReq[SolveBestRequest]{3, SolveBestRequest{
			Protocol: ProtocolSpec{Name: "Berkeley"},
			Workload: WorkloadSpec{Params: params},
			N:        4,
		}}},
		{"solvebest_empty_mods", TypeSolveBestReq, &seqReq[SolveBestRequest]{4, SolveBestRequest{
			Protocol: ProtocolSpec{Mods: []int{}},
			Workload: WorkloadSpec{AppendixA: intp(1)},
			N:        3,
			Budget:   &BudgetSpec{MaxStates: -1, SimCycles: -1},
		}}},
		// The zero workload spec encodes as appendix level 0.
		{"solve_zero_workload", TypeSolveReq, &seqReq[SolveRequest]{5, SolveRequest{
			Protocol: ProtocolSpec{Name: "Dragon"},
			N:        2,
		}}},
		{"sweep_empty_ns", TypeSweepReq, &seqReq[SweepRequest]{6, SweepRequest{
			Protocol: ProtocolSpec{Name: "Illinois"},
			Workload: WorkloadSpec{AppendixA: intp(20)},
		}}},
	}
}

// TestRequestShapeBytes pins the encoding of requestShapes byte for
// byte, and requires each pinned frame to decode and re-encode to the
// same bytes. Regenerate deliberately with
//
//	go test ./internal/wire -run TestRequestShapeBytes -update
func TestRequestShapeBytes(t *testing.T) {
	shapes := requestShapes()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Request frames as callers send them: hex of AppendFrame(type, payload).\n")
		sb.WriteString("# Format: <shape name> <hex bytes>\n")
		sb.WriteString("# Regenerate: go test ./internal/wire -run TestRequestShapeBytes -update\n")
		for _, s := range shapes {
			fmt.Fprintf(&sb, "%s %s\n", s.name, hex.EncodeToString(AppendFrame(nil, s.typ, encodeMessage(s.typ, s.msg))))
		}
		if err := os.WriteFile(requestShapesPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vectors := readVectors(t, requestShapesPath)
	if len(vectors) != len(shapes) {
		t.Fatalf("%s has %d vectors, want %d", requestShapesPath, len(vectors), len(shapes))
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			want, ok := vectors[s.name]
			if !ok {
				t.Fatalf("no vector for %s", s.name)
			}
			if got := AppendFrame(nil, s.typ, encodeMessage(s.typ, s.msg)); !bytes.Equal(got, want) {
				t.Fatalf("encoding diverged —\n got %x\nwant %x", got, want)
			}
			f, rest, err := DecodeFrame(want, 0)
			if err != nil || len(rest) != 0 || f.Type != s.typ {
				t.Fatalf("decode frame: type %v err=%v rest=%d", f.Type, err, len(rest))
			}
			m, err := decodeMessage(s.typ, f.Payload)
			if err != nil {
				t.Fatalf("decode payload: %v", err)
			}
			if re := encodeMessage(s.typ, m); !bytes.Equal(re, f.Payload) {
				t.Fatalf("decode/encode diverged —\n got %x\nwant %x", re, f.Payload)
			}
		})
	}
}
