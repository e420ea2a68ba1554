// Package wire is the binary transport of the snoopd serving layer: a
// length-prefixed, versioned framing over persistent TCP connections,
// with append-style zero-copy encoders for the solve, sweep and
// solvebest request/response payloads, and a pipelining client with
// keepalive and per-connection write backpressure. The client does not
// resend: a lost connection fails the calls in flight on it, and the
// caller decides whether to try again (the dispatch coordinator
// requeues the point).
//
// # Frame layout (version 2)
//
//	offset  size     field
//	0       2        magic 0x53 0x4E ("SN")
//	2       1        protocol version (0x02)
//	3       1        frame type
//	4       1..5     payload length, unsigned LEB128 varint
//	...     length   payload
//	end     4        CRC32-C (Castagnoli) of the payload, little-endian
//
// Every multi-byte integer inside payloads is a varint (unsigned LEB128,
// or zigzag for signed values); float64s travel as their IEEE-754 bit
// pattern in 8 little-endian bytes, so a decoded result is bitwise
// identical to the encoder's — the property the JSON↔binary equivalence
// suite pins. Strings are a length varint followed by UTF-8 bytes.
//
// # Error taxonomy
//
// Everything that can go wrong at the framing layer is a typed
// *ProtocolError distinguishing:
//
//   - KindMalformed — bad magic, unknown frame type, an unparseable
//     length prefix, a truncated frame, or an undecodable payload
//   - KindVersion — a frame (or handshake) at a version this endpoint
//     does not speak; the dispatch WireTransport falls back to HTTP on it
//   - KindOversized — a length prefix exceeding the endpoint's payload
//     bound, rejected before any allocation of that size
//   - KindChecksum — a CRC32-C mismatch: the frame arrived whole but
//     corrupted
//
// A *ProtocolError is connection-fatal: framing state past the error is
// unknowable, so both ends close on one. Request-level failures (a solver
// error, an admission shed) instead travel as Error and Backpressure
// frames carrying the same code taxonomy as the JSON API, and do not
// disturb the connection.
//
// # Conversation
//
// A connection opens with Hello/HelloAck version negotiation, then the
// client pipelines request frames, each carrying a client-chosen sequence
// id; the server streams responses back in completion order, matching
// responses to requests by that id. Ping/Pong is the liveness probe (Pong
// reports draining, the binary analogue of /healthz answering 503).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the two-byte frame preamble: "SN".
var Magic = [2]byte{0x53, 0x4E}

// Version is the protocol version this package speaks. MinVersion and
// MaxVersion bound the handshake negotiation range. Version 2 carries the
// whole Result in every response; version 1's narrower response payloads
// are not spoken, so a version-1 peer is answered "no common version".
const (
	Version    = 2
	MinVersion = 2
	MaxVersion = 2
)

// DefaultMaxPayload bounds a frame's payload on both ends unless
// configured otherwise: large enough for a maximum-size sweep response,
// small enough that a hostile length prefix cannot balloon memory.
const DefaultMaxPayload = 1 << 20

// MaxBatchPoints bounds the sizes a single request may carry (a sweep's
// ns list, a batch request's item list): the serving layer refuses
// larger, so the codec refuses to decode larger too.
const MaxBatchPoints = 1024

// maxString bounds decoded string lengths (protocol names, error
// messages); nothing legitimate approaches it.
const maxString = 1 << 12

// FrameType identifies a frame's payload schema.
type FrameType byte

// The frame types of protocol version 2.
const (
	TypeHello         FrameType = 0x01 // client→server: version negotiation offer
	TypeHelloAck      FrameType = 0x02 // server→client: negotiation result
	TypePing          FrameType = 0x03 // client→server: liveness probe
	TypePong          FrameType = 0x04 // server→client: probe answer + drain status
	TypeError         FrameType = 0x05 // server→client: authoritative request failure
	TypeBackpressure  FrameType = 0x06 // server→client: admission shed / drain refusal
	TypeSolveReq      FrameType = 0x10
	TypeSolveResp     FrameType = 0x11
	TypeSolveBestReq  FrameType = 0x12
	TypeSolveBestResp FrameType = 0x13 // the solve response payload, for a solvebest request
	TypeSweepReq      FrameType = 0x14
	TypeSweepResp     FrameType = 0x15
)

// frameTypeNames is the closed set of known frame types; membership is
// part of frame validity (an unknown type is a malformed frame, not a
// skippable extension — version negotiation is how the format grows).
var frameTypeNames = map[FrameType]string{
	TypeHello:         "hello",
	TypeHelloAck:      "hello_ack",
	TypePing:          "ping",
	TypePong:          "pong",
	TypeError:         "error",
	TypeBackpressure:  "backpressure",
	TypeSolveReq:      "solve_req",
	TypeSolveResp:     "solve_resp",
	TypeSolveBestReq:  "solvebest_req",
	TypeSolveBestResp: "solvebest_resp",
	TypeSweepReq:      "sweep_req",
	TypeSweepResp:     "sweep_resp",
}

// String implements fmt.Stringer.
func (t FrameType) String() string {
	if n, ok := frameTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("frame(0x%02x)", byte(t))
}

// ErrorKind classifies a ProtocolError.
type ErrorKind uint8

const (
	// KindMalformed: the byte stream is not a frame — bad magic, unknown
	// type, unparseable length, truncation, or an undecodable payload.
	KindMalformed ErrorKind = iota
	// KindVersion: the frame or handshake is at a version this endpoint
	// does not speak.
	KindVersion
	// KindOversized: the length prefix exceeds the payload bound.
	KindOversized
	// KindChecksum: the payload CRC32-C does not match.
	KindChecksum
)

// kindNames is indexed by ErrorKind.
var kindNames = [...]string{"malformed frame", "version mismatch", "oversized frame", "checksum mismatch"}

// String implements fmt.Stringer.
func (k ErrorKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ProtocolError is a framing-layer failure. It is connection-fatal:
// after one, the stream position is unknowable and the connection must
// close.
type ProtocolError struct {
	Kind   ErrorKind
	Detail string
}

// Error implements error.
func (e *ProtocolError) Error() string {
	if e.Detail == "" {
		return "wire: " + e.Kind.String()
	}
	return "wire: " + e.Kind.String() + ": " + e.Detail
}

func errMalformed(format string, args ...any) *ProtocolError {
	return &ProtocolError{Kind: KindMalformed, Detail: fmt.Sprintf(format, args...)}
}

// crcTable is the Castagnoli polynomial table (CRC32-C, the one with
// hardware support on current CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// headerSize is the fixed prefix before the length varint.
const headerSize = 4 // magic(2) + version(1) + type(1)

// trailerSize is the CRC32-C suffix.
const trailerSize = 4

// Frame is one decoded frame. Payload aliases the decode input (or the
// reader's scratch buffer); callers that retain it across reads must
// copy.
type Frame struct {
	Version byte
	Type    FrameType
	Payload []byte
}

// AppendFrame appends a complete frame of the given type around payload
// to dst and returns the extended slice. It is the only encoder frames
// go through, so the golden conformance vectors pin every producer.
func AppendFrame(dst []byte, typ FrameType, payload []byte) []byte {
	dst = append(dst, Magic[0], Magic[1], Version, byte(typ))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// DecodeFrame decodes the first frame in b, returning the frame, the
// remaining bytes after it, and an error. Payload aliases b (zero-copy).
//
// A short b returns io.ErrUnexpectedEOF (an empty b returns io.EOF):
// the caller is mid-frame and should read more bytes — the streaming
// reader's contract. Every other failure is a *ProtocolError.
func DecodeFrame(b []byte, maxPayload int) (Frame, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(b) == 0 {
		return Frame{}, b, io.EOF
	}
	// Validate the fixed header byte-by-byte so a bad magic or version is
	// reported as such even when the buffer is still short.
	if b[0] != Magic[0] || (len(b) > 1 && b[1] != Magic[1]) {
		return Frame{}, b, errMalformed("bad magic 0x%02x", b[0])
	}
	if len(b) > 2 && (b[2] < MinVersion || b[2] > MaxVersion) {
		return Frame{}, b, &ProtocolError{Kind: KindVersion,
			Detail: fmt.Sprintf("frame version %d, this endpoint speaks %d..%d", b[2], MinVersion, MaxVersion)}
	}
	if len(b) > 3 {
		if _, ok := frameTypeNames[FrameType(b[3])]; !ok {
			return Frame{}, b, errMalformed("unknown frame type 0x%02x", b[3])
		}
	}
	if len(b) < headerSize+1 {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	length, n := binary.Uvarint(b[headerSize:])
	if n == 0 {
		if len(b)-headerSize >= binary.MaxVarintLen64 {
			return Frame{}, b, errMalformed("unterminated length varint")
		}
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return Frame{}, b, errMalformed("length varint overflows uint64")
	}
	// The length prefix must be the minimal encoding: a multi-byte varint
	// whose final byte is zero contributes no bits, so a shorter encoding
	// of the same value exists. Accepting it would break the
	// decode/encode fixpoint — the same frame would have two byte
	// representations, and re-framing a decoded frame would not
	// reproduce its input.
	if n > 1 && b[headerSize+n-1] == 0 {
		return Frame{}, b, errMalformed("non-minimal length varint")
	}
	if length > uint64(maxPayload) {
		return Frame{}, b, &ProtocolError{Kind: KindOversized,
			Detail: fmt.Sprintf("payload length %d exceeds the %d-byte bound", length, maxPayload)}
	}
	total := headerSize + n + int(length) + trailerSize
	if len(b) < total {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	payload := b[headerSize+n : headerSize+n+int(length)]
	want := binary.LittleEndian.Uint32(b[headerSize+n+int(length):])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return Frame{}, b, &ProtocolError{Kind: KindChecksum,
			Detail: fmt.Sprintf("payload CRC32C %08x, frame says %08x", got, want)}
	}
	return Frame{Version: b[2], Type: FrameType(b[3]), Payload: payload}, b[total:], nil
}

// Reader decodes a frame stream incrementally, tolerating frames split
// arbitrarily across Read boundaries. Construct with NewReader.
type Reader struct {
	src        io.Reader
	buf        []byte
	maxPayload int
}

// NewReader wraps src. maxPayload <= 0 means DefaultMaxPayload.
func NewReader(src io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Reader{src: src, maxPayload: maxPayload}
}

// Next reads and returns the next frame. The returned Frame's payload
// aliases the Reader's internal buffer and is valid until the following
// Next call. A clean end-of-stream at a frame boundary returns io.EOF; a
// stream ending mid-frame returns io.ErrUnexpectedEOF; corrupt framing
// returns a *ProtocolError. All are fatal to the stream.
func (r *Reader) Next() (Frame, error) {
	for {
		f, rest, err := DecodeFrame(r.buf, r.maxPayload)
		switch {
		case err == nil:
			// Zero-copy within the buffer: shift the unconsumed tail down
			// only on the next fill, so the payload stays valid meanwhile.
			r.buf = rest
			return f, nil
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			n, rerr := r.fill()
			if n > 0 {
				continue
			}
			if rerr == nil {
				continue // spurious zero-byte read; try again
			}
			if rerr == io.EOF {
				if len(r.buf) == 0 {
					return Frame{}, io.EOF
				}
				return Frame{}, io.ErrUnexpectedEOF
			}
			return Frame{}, rerr
		default:
			return Frame{}, err
		}
	}
}

// fillWindow is how many bytes one fill offers the source. Wide enough
// that a pipelining peer's burst of frames lands in one read syscall.
const fillWindow = 16384

// fill reads more bytes from the source into the buffer, growing it
// geometrically when full. Doubling matters for frames much larger than
// fillWindow: fixed-increment growth would realloc-and-copy the
// accumulated prefix once per window — quadratic bytes moved across a
// max-payload frame — where doubling amortizes to O(len) total.
func (r *Reader) fill() (int, error) {
	if len(r.buf)+fillWindow > cap(r.buf) {
		newCap := 2 * cap(r.buf)
		if newCap < len(r.buf)+fillWindow {
			newCap = len(r.buf) + fillWindow
		}
		grown := make([]byte, len(r.buf), newCap)
		copy(grown, r.buf)
		r.buf = grown
	}
	n, err := r.src.Read(r.buf[len(r.buf) : len(r.buf)+fillWindow])
	r.buf = r.buf[:len(r.buf)+n]
	return n, err
}
