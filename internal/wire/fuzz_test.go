package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"unicode/utf8"

	"snoopmva"
)

// mustKind asserts err is inside the decoder's closed error taxonomy:
// nil, the two EOF flavors, or a *ProtocolError. Anything else — and any
// panic, which the fuzzer catches on its own — is a conformance bug.
func mustKind(t *testing.T, err error) {
	t.Helper()
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("error outside the taxonomy: %T %v", err, err)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder and, when
// a frame survives, at the payload decoder for its type. Invariants:
// no panic, errors stay inside the closed taxonomy, a decoded frame
// re-encodes to the exact bytes it was decoded from (the decode/encode
// fixpoint), and decode consumes exactly the frame it reports.
func FuzzDecodeFrame(f *testing.F) {
	samples := sampleMessages()
	for typ, msg := range samples {
		f.Add(AppendFrame(nil, typ, encodeMessage(typ, msg)))
	}
	// The documented corpus shapes: truncated length prefix, CRC
	// mismatch, oversized length, version skew, partial/concatenated
	// frames.
	ping := AppendFrame(nil, TypePing, AppendPing(nil, &Ping{Seq: 1}))
	f.Add(ping[:headerSize])  // truncated before the length prefix
	f.Add(ping[:len(ping)-2]) // truncated inside the CRC trailer
	crcFlip := append([]byte(nil), ping...)
	crcFlip[len(crcFlip)-1] ^= 0xFF
	f.Add(crcFlip)
	oversized := []byte{Magic[0], Magic[1], Version, byte(TypePing)}
	f.Add(binary.AppendUvarint(oversized, DefaultMaxPayload+1))
	skew := append([]byte(nil), ping...)
	skew[2] = 99 // version byte
	f.Add(skew)
	// Non-minimal length varint (0x80 0x00 encodes 0 in two bytes):
	// decodes to the same frame as the minimal form, so accepting it
	// would break the decode/encode fixpoint.
	f.Add([]byte{Magic[0], Magic[1], Version, byte(TypePing), 0x80, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add(append(append([]byte(nil), ping...), ping[:3]...)) // frame + partial frame
	f.Add([]byte{})
	f.Add([]byte{Magic[0]})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			frame, after, err := DecodeFrame(rest, 0)
			mustKind(t, err)
			if err != nil {
				break
			}
			consumed := len(rest) - len(after)
			// Decode/encode fixpoint: re-framing the decoded parts must
			// reproduce the consumed bytes exactly.
			if re := AppendFrame(nil, frame.Type, frame.Payload); !bytes.Equal(re, rest[:consumed]) {
				t.Fatalf("re-encode diverged from input:\n in  %x\n out %x", rest[:consumed], re)
			}
			// The payload decoders must stay inside the taxonomy too.
			_, derr := decodeMessage(frame.Type, frame.Payload)
			mustKind(t, derr)
			if len(after) == len(rest) {
				t.Fatalf("decode made no progress")
			}
			rest = after
		}
	})
}

// FuzzBatchRequest drives the streaming Reader with a fuzzer-chosen
// byte stream and chunk size, then re-runs the identical stream
// byte-at-a-time. Invariants: the decoded frame sequence and the final
// error are independent of how the bytes were chunked across Read
// calls (the interleaved-partial-frames property), and both runs stay
// inside the error taxonomy.
func FuzzBatchRequest(f *testing.F) {
	samples := sampleMessages()
	// A realistic pipelined batch: hello, then several request frames
	// back to back — plus the corruption corpus mid-stream.
	var batch []byte
	batch = AppendFrame(batch, TypeHello, AppendHello(nil, samples[TypeHello].(*Hello)))
	for _, typ := range []FrameType{TypeSolveReq, TypeSolveBestReq, TypeSweepReq} {
		batch = AppendFrame(batch, typ, encodeMessage(typ, samples[typ]))
	}
	f.Add(batch, uint8(1))
	f.Add(batch, uint8(3))
	f.Add(batch, uint8(255))
	truncated := batch[:len(batch)-5] // ends mid-frame
	f.Add(truncated, uint8(7))
	corrupt := append([]byte(nil), batch...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt, uint8(2))
	skew := append([]byte(nil), batch...)
	skew[2] = Version + 1 // version byte of the first frame
	f.Add(skew, uint8(4))

	type step struct {
		typ     FrameType
		payload []byte
	}
	run := func(t *testing.T, data []byte, chunk int) ([]step, error) {
		r := NewReader(&chunkReader{src: append([]byte(nil), data...), sizes: []int{chunk}}, 0)
		var steps []step
		for {
			frame, err := r.Next()
			mustKind(t, err)
			if err != nil {
				return steps, err
			}
			steps = append(steps, step{frame.Type, append([]byte(nil), frame.Payload...)})
			if len(steps) > len(data)/(headerSize+1)+1 {
				t.Fatalf("more frames than the stream can hold")
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if len(data) > 1<<16 {
			return // bound fuzz memory; chunking logic is size-oblivious
		}
		c := int(chunk)
		if c < 1 {
			c = 1
		}
		got, gotErr := run(t, data, c)
		want, wantErr := run(t, data, 1)
		if len(got) != len(want) {
			t.Fatalf("chunk %d decoded %d frames, byte-at-a-time %d", c, len(got), len(want))
		}
		for i := range got {
			if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("frame %d diverged across chunkings", i)
			}
		}
		// The terminal error must match in taxonomy position: same EOF
		// flavor, or the same ProtocolError kind.
		var gk, wk ErrorKind = 255, 255
		var gpe, wpe *ProtocolError
		if errors.As(gotErr, &gpe) {
			gk = gpe.Kind
		}
		if errors.As(wantErr, &wpe) {
			wk = wpe.Kind
		}
		if (gotErr == io.EOF) != (wantErr == io.EOF) || gk != wk {
			t.Fatalf("terminal error diverged across chunkings: chunk %d → %v, 1 → %v", c, gotErr, wantErr)
		}
	})
}

// jsonTrip sends r's request through json.Marshal and a strict JSON
// decode. ok is false when JSON cannot carry the request: a NaN or
// infinite float has no JSON spelling, a negative zero under omitempty
// comes back as +0, and a name that is not valid UTF-8 comes back with
// replacement characters.
func jsonTrip[T any](t *testing.T, r *seqReq[T]) (back *seqReq[T], ok bool) {
	body, err := json.Marshal(&r.req)
	var unsupported *json.UnsupportedValueError
	if errors.As(err, &unsupported) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	back = &seqReq[T]{seq: r.seq}
	if err := dec.Decode(&back.req); err != nil {
		t.Fatalf("strict decode of %s: %v", body, err)
	}
	return back, true
}

// jsonCarries reports whether the request's protocol name and its
// omitempty floats survive JSON (see jsonTrip).
func jsonCarries(p ProtocolSpec, tm *snoopmva.Timing, o *snoopmva.Options) bool {
	var omitted []float64
	if tm != nil {
		omitted = append(omitted, tm.TSupply, tm.TWrite, tm.TInval, tm.DMem, tm.TBlock)
	}
	if o != nil {
		omitted = append(omitted, o.Tolerance)
	}
	for _, v := range omitted {
		if v == 0 && math.Signbit(v) {
			return false
		}
	}
	return utf8.ValidString(p.Name)
}

// FuzzRequestJSONWire pins that the one request schema loses nothing on
// either codec: any request payload that decodes, and that JSON can
// carry, encodes to the same bytes after json.Marshal, a strict JSON
// decode and a re-encode as it does re-encoded directly. (The direct
// re-encode is the reference because the decoder accepts non-minimal
// varints, which every encoder writes minimally.)
func FuzzRequestJSONWire(f *testing.F) {
	reqTypes := []FrameType{TypeSolveReq, TypeSolveBestReq, TypeSweepReq}
	samples := sampleMessages()
	for i, typ := range reqTypes {
		f.Add(uint8(i), encodeMessage(typ, samples[typ]))
	}
	for _, s := range requestShapes() {
		f.Add(uint8(slices.Index(reqTypes, s.typ)), encodeMessage(s.typ, s.msg))
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		typ := reqTypes[int(kind)%len(reqTypes)]
		m, err := decodeMessage(typ, payload)
		if err != nil {
			return
		}
		var back any
		ok := false
		switch v := m.(type) {
		case *seqReq[SolveRequest]:
			if jsonCarries(v.req.Protocol, v.req.Timing, v.req.Options) {
				back, ok = jsonTrip(t, v)
			}
		case *seqReq[SolveBestRequest]:
			if jsonCarries(v.req.Protocol, nil, nil) {
				back, ok = jsonTrip(t, v)
			}
		case *seqReq[SweepRequest]:
			if jsonCarries(v.req.Protocol, nil, nil) {
				back, ok = jsonTrip(t, v)
			}
		}
		if !ok {
			return
		}
		if got, want := encodeMessage(typ, back), encodeMessage(typ, m); !bytes.Equal(got, want) {
			t.Fatalf("%v: JSON trip changed the encoding\n got %x\nwant %x", typ, got, want)
		}
	})
}

// resultTrip sends *r through json.Marshal and a strict JSON decode, in
// place. ok is false when JSON cannot carry the result: a NaN or infinite
// float has no JSON spelling, a negative zero under omitempty comes back
// as +0, and a string that is not valid UTF-8 comes back with
// replacement characters.
func resultTrip(t *testing.T, r *Result) (ok bool) {
	for _, v := range []float64{r.SpeedupLow, r.SpeedupHigh} {
		if v == 0 && math.Signbit(v) {
			return false
		}
	}
	if !utf8.ValidString(string(r.Method)) || !utf8.ValidString(r.FallbackReason) {
		return false
	}
	body, err := json.Marshal(r)
	var unsupported *json.UnsupportedValueError
	if errors.As(err, &unsupported) {
		return false
	}
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var back Result
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict decode of %s: %v", body, err)
	}
	*r = back
	return true
}

// FuzzResultJSONWire pins that the one answer record loses nothing on
// either codec: any response payload that decodes, and whose results
// JSON can carry, encodes to the same bytes after each result goes
// through json.Marshal and a strict JSON decode as it does re-encoded
// directly (the reference, as in FuzzRequestJSONWire).
func FuzzResultJSONWire(f *testing.F) {
	respTypes := []FrameType{TypeSolveResp, TypeSolveBestResp, TypeSweepResp}
	samples := sampleMessages()
	for i, typ := range respTypes {
		f.Add(uint8(i), encodeMessage(typ, samples[typ]))
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		typ := respTypes[int(kind)%len(respTypes)]
		m, err := decodeMessage(typ, payload)
		if err != nil {
			return
		}
		var back any
		switch v := m.(type) {
		case *SolveResponse:
			r := *v
			if !resultTrip(t, &r.Result) {
				return
			}
			back = &r
		case *SweepResponse:
			r := SweepResponse{Seq: v.Seq, Results: slices.Clone(v.Results)}
			for i := range r.Results {
				if !resultTrip(t, &r.Results[i]) {
					return
				}
			}
			back = &r
		}
		if got, want := encodeMessage(typ, back), encodeMessage(typ, m); !bytes.Equal(got, want) {
			t.Fatalf("%v: JSON trip changed the encoding\n got %x\nwant %x", typ, got, want)
		}
	})
}
