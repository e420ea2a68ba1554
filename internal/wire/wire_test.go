package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"

	"snoopmva"
)

// seqReq is a request together with the sequence id it travels under:
// the request structs carry no transport fields, so the codec takes and
// returns the id beside them.
type seqReq[T any] struct {
	seq uint64
	req T
}

func intp(v int) *int { return &v }

// sampleMessages is one fully-populated instance of every payload type,
// shared by the round-trip, golden and fuzz-corpus tests. Floats include
// negative-zero and subnormal values so bitwise fidelity — not numeric
// equality — is what round-trips pin down.
func sampleMessages() map[FrameType]any {
	fields := &snoopmva.Workload{
		Tau: 24.5, PPrivate: 0.5162, PSro: 0.0953, PSw: 0.0385,
		HPrivate: 0.97, HSro: 0.873, HSw: 0.973,
		RPrivate: 1.533, RSw: 2.196, AmodPrivate: 0.45, AmodSw: 0.1,
		CsupplySro: 0.3, CsupplySw: 0.5162, WbCsupply: 0.3,
		RepP: 0.0139, RepSw: 0.0029, FixedParams: true,
	}
	return map[FrameType]any{
		TypeHello:    &Hello{MinVersion: MinVersion, MaxVersion: MaxVersion, ClientName: "dispatch"},
		TypeHelloAck: &HelloAck{Version: Version, ServerName: "snoopd"},
		TypePing:     &Ping{Seq: 7},
		TypePong:     &Pong{Seq: 7, Draining: true},
		TypeError:    &ErrorMsg{Seq: 9, Code: "no_convergence", Msg: "mva: no convergence after 500 iterations"},
		TypeBackpressure: &BackpressureMsg{
			Seq: 11, Code: "overloaded", RetryAfterMS: 250,
		},
		TypeSolveReq: &seqReq[SolveRequest]{1, SolveRequest{
			Protocol: ProtocolSpec{Name: "Illinois"},
			Workload: WorkloadSpec{Params: fields},
			N:        12,
			Timing:   &snoopmva.Timing{TSupply: 3, TWrite: 1, TInval: 1, DMem: 4, BlockSize: 4, TBlock: 5},
			Options: &snoopmva.Options{
				Tolerance: 1e-9, MaxIterations: 500,
				NoResidualLife: true, SplitTransactionBus: true,
			},
			TimeoutMS: 1500,
		}},
		TypeSolveResp: &SolveResponse{
			Seq: 1,
			Result: Result{
				Method: snoopmva.MethodMVA,
				N:      12, Speedup: 9.25, ProcessingPower: 0.7708333333333334,
				R: 31.77, BusUtilization: 0.62, BusWait: 2.5,
				MemUtilization: math.Copysign(0, -1), MemWait: 5e-324, Iterations: 17,
			},
		},
		TypeSolveBestReq: &seqReq[SolveBestRequest]{2, SolveBestRequest{
			Protocol:  ProtocolSpec{Mods: []int{1, 2, 3}},
			Workload:  WorkloadSpec{AppendixA: intp(5)},
			N:         16,
			Budget:    &BudgetSpec{MaxStates: 100000, GTPNTimeoutMS: 2000, SimCycles: 1 << 20, SimTimeoutMS: 3000, Seed: 42},
			TimeoutMS: 60000,
		}},
		TypeSolveBestResp: &SolveResponse{Seq: 2, Result: Result{
			Method: snoopmva.MethodSimulation, Degraded: true,
			FallbackReason: "gtpn: state explosion",
			N:              16, Speedup: 11.5, ProcessingPower: 10.8, R: 33.1,
			BusUtilization: 0.71, BusWait: 3.25, MemUtilization: 0.2,
			SpeedupLow: 11.25, SpeedupHigh: 11.75, Observed: fields,
		}},
		TypeSweepReq: &seqReq[SweepRequest]{3, SweepRequest{
			Protocol: ProtocolSpec{Name: "Berkeley"},
			Workload: WorkloadSpec{Stress: true},
			Ns:       []int{1, 2, 4, 8, 16},
			Parallel: true,
		}},
		TypeSweepResp: &SweepResponse{
			Seq: 3,
			Results: []Result{
				{Method: snoopmva.MethodMVA, N: 1, Speedup: 1, ProcessingPower: 1, R: 24.5, Iterations: 2},
				{Method: snoopmva.MethodGTPN, N: 2, Speedup: 1.98, ProcessingPower: 0.99, R: 24.7, BusUtilization: 0.11, States: 27},
			},
		},
	}
}

// encodeMessage dispatches to the Append* encoder for m.
func encodeMessage(t FrameType, m any) []byte {
	switch v := m.(type) {
	case *Hello:
		return AppendHello(nil, v)
	case *HelloAck:
		return AppendHelloAck(nil, v)
	case *Ping:
		return AppendPing(nil, v)
	case *Pong:
		return AppendPong(nil, v)
	case *ErrorMsg:
		return AppendError(nil, v)
	case *BackpressureMsg:
		return AppendBackpressure(nil, v)
	case *seqReq[SolveRequest]:
		return AppendSolveRequest(nil, v.seq, &v.req)
	case *SolveResponse:
		return AppendSolveResponse(nil, v)
	case *seqReq[SolveBestRequest]:
		return AppendSolveBestRequest(nil, v.seq, &v.req)
	case *seqReq[SweepRequest]:
		return AppendSweepRequest(nil, v.seq, &v.req)
	case *SweepResponse:
		return AppendSweepResponse(nil, v)
	}
	panic("unknown message type")
}

// decodeMessage dispatches to the Decode* decoder for frame type t,
// returning a pointer so results compare against the sample instances.
func decodeMessage(t FrameType, payload []byte) (any, error) {
	switch t {
	case TypeHello:
		m, err := DecodeHello(payload)
		return &m, err
	case TypeHelloAck:
		m, err := DecodeHelloAck(payload)
		return &m, err
	case TypePing:
		m, err := DecodePing(payload)
		return &m, err
	case TypePong:
		m, err := DecodePong(payload)
		return &m, err
	case TypeError:
		m, err := DecodeError(payload)
		return &m, err
	case TypeBackpressure:
		m, err := DecodeBackpressure(payload)
		return &m, err
	case TypeSolveReq:
		seq, m, err := DecodeSolveRequest(payload)
		return &seqReq[SolveRequest]{seq, m}, err
	case TypeSolveResp, TypeSolveBestResp:
		m, err := DecodeSolveResponse(payload)
		return &m, err
	case TypeSolveBestReq:
		seq, m, err := DecodeSolveBestRequest(payload)
		return &seqReq[SolveBestRequest]{seq, m}, err
	case TypeSweepReq:
		seq, m, err := DecodeSweepRequest(payload)
		return &seqReq[SweepRequest]{seq, m}, err
	case TypeSweepResp:
		m, err := DecodeSweepResponse(payload)
		return &m, err
	}
	panic("unknown frame type")
}

func TestMessageRoundTrips(t *testing.T) {
	for typ, msg := range sampleMessages() {
		t.Run(typ.String(), func(t *testing.T) {
			payload := encodeMessage(typ, msg)
			got, err := decodeMessage(typ, payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("round trip diverged:\n got %#v\nwant %#v", got, msg)
			}
			// Seq must be peekable without a full decode — the read loops
			// route responses by it.
			if typ != TypeHello && typ != TypeHelloAck {
				if _, ok := PeekSeq(payload); !ok {
					t.Fatalf("PeekSeq failed on %v payload", typ)
				}
			}
		})
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for typ, msg := range sampleMessages() {
		payload := encodeMessage(typ, msg)
		frame := AppendFrame(nil, typ, payload)
		f, rest, err := DecodeFrame(frame, 0)
		if err != nil {
			t.Fatalf("%v: decode: %v", typ, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", typ, len(rest))
		}
		if f.Type != typ || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("%v: frame diverged", typ)
		}
	}
}

func TestDecodeFrameConcatenated(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, TypePing, AppendPing(nil, &Ping{Seq: 1}))
	buf = AppendFrame(buf, TypePing, AppendPing(nil, &Ping{Seq: 2}))
	f1, rest, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	f2, rest, err := DecodeFrame(rest, 0)
	if err != nil || len(rest) != 0 {
		t.Fatalf("second frame: err=%v rest=%d", err, len(rest))
	}
	p1, _ := DecodePing(f1.Payload)
	p2, _ := DecodePing(f2.Payload)
	if p1.Seq != 1 || p2.Seq != 2 {
		t.Fatalf("seqs %d,%d", p1.Seq, p2.Seq)
	}
}

// corruptions builds malformed frames and names the error each must
// produce — the closed taxonomy the package documents.
func corruptions() map[string]struct {
	frame []byte
	kind  ErrorKind
} {
	good := AppendFrame(nil, TypePing, AppendPing(nil, &Ping{Seq: 99}))
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0xFF
		return b
	}
	oversized := func() []byte {
		b := []byte{Magic[0], Magic[1], Version, byte(TypePing)}
		b = binary.AppendUvarint(b, DefaultMaxPayload+1)
		return b
	}()
	unknownType := func() []byte {
		b := []byte{Magic[0], Magic[1], Version, 0x7F}
		b = binary.AppendUvarint(b, 0)
		return b
	}()
	// Recompute the CRC over the unknown-type frame so only the type byte
	// is at fault (a stale CRC would mask the type check).
	unknownType = binary.LittleEndian.AppendUint32(unknownType, crc32.Checksum(unknownType[headerSize:], crcTable))
	return map[string]struct {
		frame []byte
		kind  ErrorKind
	}{
		"bad magic 0":    {flip(0), KindMalformed},
		"bad magic 1":    {flip(1), KindMalformed},
		"version skew":   {flip(2), KindVersion},
		"unknown type":   {unknownType, KindMalformed},
		"oversized":      {oversized, KindOversized},
		"crc payload":    {flip(len(good) - trailerSize - 1), KindChecksum},
		"crc trailer":    {flip(len(good) - 1), KindChecksum},
		"length garbage": {append(append([]byte(nil), good[:4]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), KindMalformed},
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	for name, c := range corruptions() {
		t.Run(name, func(t *testing.T) {
			_, _, err := DecodeFrame(c.frame, 0)
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProtocolError", err)
			}
			if pe.Kind != c.kind {
				t.Fatalf("kind = %v, want %v (err: %v)", pe.Kind, c.kind, err)
			}
		})
	}
}

// TestDecodeFrameTruncations feeds every proper prefix of a valid frame:
// each must report io.ErrUnexpectedEOF (need more bytes), never a
// ProtocolError and never success — truncation is not corruption.
func TestDecodeFrameTruncations(t *testing.T) {
	frame := AppendFrame(nil, TypeError, AppendError(nil, &ErrorMsg{Seq: 3, Code: "internal", Msg: "boom"}))
	if _, _, err := DecodeFrame(nil, 0); err != io.EOF {
		t.Fatalf("empty: err = %v, want io.EOF", err)
	}
	for i := 1; i < len(frame); i++ {
		if _, _, err := DecodeFrame(frame[:i], 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("prefix %d/%d: err = %v, want io.ErrUnexpectedEOF", i, len(frame), err)
		}
	}
}

// TestDecodeFrameMaxPayload pins the cap boundary: a payload exactly at
// maxPayload decodes; one byte more is KindOversized — detected from the
// length prefix alone, before the payload needs to be present.
func TestDecodeFrameMaxPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 64)
	frame := AppendFrame(nil, TypeSolveResp, payload)
	if _, _, err := DecodeFrame(frame, len(payload)); err != nil {
		t.Fatalf("at cap: %v", err)
	}
	_, _, err := DecodeFrame(frame, len(payload)-1)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Kind != KindOversized {
		t.Fatalf("over cap: err = %v, want KindOversized", err)
	}
	// The oversized check must fire on the header alone: truncate the
	// frame right after the length prefix and it still rejects.
	header := frame[:headerSize+1] // uvarint(64) is one byte
	if _, _, err := DecodeFrame(header, len(payload)-1); !errors.As(err, &pe) || pe.Kind != KindOversized {
		t.Fatalf("truncated over cap: err = %v, want KindOversized", err)
	}
}

// chunkReader yields src in caller-specified chunk sizes, cycling, to
// drive the Reader across every refill boundary shape.
type chunkReader struct {
	src    []byte
	sizes  []int
	cursor int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.src) == 0 {
		return 0, io.EOF
	}
	n := r.sizes[r.cursor%len(r.sizes)]
	r.cursor++
	if n > len(r.src) {
		n = len(r.src)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.src[:n])
	r.src = r.src[n:]
	return n, nil
}

// TestReaderChunking decodes the full sample-message stream through
// every pathological chunking — 1-byte reads, 3-byte reads, one frame
// split across reads — and requires the identical frame sequence.
func TestReaderChunking(t *testing.T) {
	samples := sampleMessages()
	types := []FrameType{
		TypeHello, TypeHelloAck, TypePing, TypePong, TypeError, TypeBackpressure,
		TypeSolveReq, TypeSolveResp, TypeSolveBestReq, TypeSolveBestResp,
		TypeSweepReq, TypeSweepResp,
	}
	var stream []byte
	var wantPayloads [][]byte
	for _, typ := range types {
		p := encodeMessage(typ, samples[typ])
		wantPayloads = append(wantPayloads, p)
		stream = AppendFrame(stream, typ, p)
	}
	for _, sizes := range [][]int{{1}, {2}, {3}, {7}, {1, 13}, {4096}, {len(stream)}} {
		r := NewReader(&chunkReader{src: append([]byte(nil), stream...), sizes: sizes}, 0)
		for i, typ := range types {
			f, err := r.Next()
			if err != nil {
				t.Fatalf("sizes %v frame %d: %v", sizes, i, err)
			}
			if f.Type != typ || !bytes.Equal(f.Payload, wantPayloads[i]) {
				t.Fatalf("sizes %v frame %d: diverged (type %v want %v)", sizes, i, f.Type, typ)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("sizes %v: trailing Next err = %v, want io.EOF", sizes, err)
		}
	}
}

// TestReaderMidFrameEOF pins the two EOF flavors: a stream ending at a
// frame boundary is io.EOF, mid-frame is io.ErrUnexpectedEOF.
func TestReaderMidFrameEOF(t *testing.T) {
	frame := AppendFrame(nil, TypePing, AppendPing(nil, &Ping{Seq: 5}))
	for cut := 1; cut < len(frame); cut++ {
		r := NewReader(bytes.NewReader(frame[:cut]), 0)
		if _, err := r.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReaderCorruptionSurfaces runs the corruption table through the
// streaming path: the Reader must report the same taxonomy DecodeFrame
// does, with frames delivered before the corruption intact.
func TestReaderCorruptionSurfaces(t *testing.T) {
	good := AppendFrame(nil, TypePing, AppendPing(nil, &Ping{Seq: 1}))
	for name, c := range corruptions() {
		t.Run(name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(append(append([]byte(nil), good...), c.frame...)), 0)
			if _, err := r.Next(); err != nil {
				t.Fatalf("good frame: %v", err)
			}
			_, err := r.Next()
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Kind != c.kind {
				t.Fatalf("err = %v, want kind %v", err, c.kind)
			}
		})
	}
}

// TestPayloadDecodeClosure: every decoder must reject trailing garbage
// and truncation with KindMalformed — no decoder may panic or accept.
func TestPayloadDecodeClosure(t *testing.T) {
	for typ, msg := range sampleMessages() {
		payload := encodeMessage(typ, msg)
		t.Run(typ.String()+"/trailing", func(t *testing.T) {
			_, err := decodeMessage(typ, append(append([]byte(nil), payload...), 0x00))
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Kind != KindMalformed {
				t.Fatalf("trailing byte: err = %v, want KindMalformed", err)
			}
		})
		t.Run(typ.String()+"/truncated", func(t *testing.T) {
			for i := 0; i < len(payload); i++ {
				m, err := decodeMessage(typ, payload[:i])
				if err == nil {
					// Some prefixes are structurally complete messages
					// (optional trailing fields do not exist here, so none
					// should be) — flag them.
					t.Fatalf("prefix %d/%d decoded to %#v", i, len(payload), m)
				}
				var pe *ProtocolError
				if !errors.As(err, &pe) || pe.Kind != KindMalformed {
					t.Fatalf("prefix %d: err = %v, want KindMalformed", i, err)
				}
			}
		})
	}
}

// TestDecodeBoundsRejected pins the input-cap checks that keep a hostile
// peer from forcing large allocations: string length, mods count, ns
// count, results count.
func TestDecodeBoundsRejected(t *testing.T) {
	longName := make([]byte, 0, 16)
	longName = binary.AppendUvarint(longName, 4) // seq
	longName = append(longName, 0)               // protocol tag 0 = name
	longName = binary.AppendUvarint(longName, maxString+1)

	// Over-bound ns count, encoded by hand: seq, protocol, workload, count.
	var over []byte
	over = binary.AppendUvarint(over, 1)                // seq
	over = append(over, 0)                              // protocol tag: name
	over = appendString(over, "Illinois")               // name
	over = append(over, kindStress)                     // workload kind
	over = binary.AppendUvarint(over, MaxBatchPoints+1) // ns count

	cases := map[string]func() error{
		"solve name too long": func() error {
			_, _, err := DecodeSolveRequest(longName)
			return err
		},
		"sweep ns over bound": func() error {
			_, _, err := DecodeSweepRequest(over)
			return err
		},
		"hello name too long": func() error {
			var b []byte
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, maxString+1)
			_, err := DecodeHello(b)
			return err
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			err := run()
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Kind != KindMalformed {
				t.Fatalf("err = %v, want KindMalformed", err)
			}
		})
	}
}

// TestProtocolSpecArms pins the protocol encoding's exactly-one-arm
// rule: a decoded empty name is rejected; a mods arm round-trips even
// when empty (the base protocol).
func TestProtocolSpecArms(t *testing.T) {
	base := AppendSolveRequest(nil, 1, &SolveRequest{
		Protocol: ProtocolSpec{Mods: []int{}},
		Workload: WorkloadSpec{AppendixA: intp(1)},
		N:        1,
	})
	_, m, err := DecodeSolveRequest(base)
	if err != nil {
		t.Fatalf("empty mods: %v", err)
	}
	if m.Protocol.Name != "" || m.Protocol.Mods == nil || len(m.Protocol.Mods) != 0 {
		t.Fatalf("empty mods arm diverged: %#v", m.Protocol)
	}

	var b []byte
	b = binary.AppendUvarint(b, 1) // seq
	b = append(b, 0)               // tag 0 = name
	b = appendString(b, "")        // empty name: invalid
	_, _, err = DecodeSolveRequest(b)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Kind != KindMalformed {
		t.Fatalf("empty name: err = %v, want KindMalformed", err)
	}
}

func TestFrameTypeStrings(t *testing.T) {
	if got := TypeSolveReq.String(); got != "solve_req" {
		t.Fatalf("TypeSolveReq = %q", got)
	}
	if got := FrameType(0xEE).String(); got != "frame(0xee)" {
		t.Fatalf("unknown = %q", got)
	}
	for _, k := range []ErrorKind{KindMalformed, KindVersion, KindOversized, KindChecksum} {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
