package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-conformance vectors")

const goldenPath = "testdata/golden_frames.txt"

// goldenOrder fixes the vector file's ordering (map iteration is not
// deterministic).
var goldenOrder = []FrameType{
	TypeHello, TypeHelloAck, TypePing, TypePong, TypeError, TypeBackpressure,
	TypeSolveReq, TypeSolveResp, TypeSolveBestReq, TypeSolveBestResp,
	TypeSweepReq, TypeSweepResp,
}

// TestGoldenFrames is the wire-conformance suite (DESIGN.md §16): the
// checked-in hex vectors are the normative byte encoding of one
// fully-populated message per frame type. Encoding must reproduce the
// vectors byte-exactly — any diff is a silent protocol break that would
// strand deployed peers — and decoding the vectors must reproduce the
// sample messages exactly. Regenerate deliberately with
//
//	go test ./internal/wire -run TestGoldenFrames -update
//
// and bump the protocol version when the diff is intentional.
func TestGoldenFrames(t *testing.T) {
	samples := sampleMessages()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Golden wire-conformance vectors: hex of AppendFrame(type, payload)\n")
		sb.WriteString("# for the sampleMessages() instance of every frame type. Format:\n")
		sb.WriteString("#   <frame type name> <hex bytes>\n")
		sb.WriteString(fmt.Sprintf("# Protocol version %d. Regenerate: go test ./internal/wire -run TestGoldenFrames -update\n", Version))
		for _, typ := range goldenOrder {
			frame := AppendFrame(nil, typ, encodeMessage(typ, samples[typ]))
			sb.WriteString(fmt.Sprintf("%s %s\n", typ, hex.EncodeToString(frame)))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	vectors := readVectors(t, goldenPath)
	if len(vectors) != len(goldenOrder) {
		t.Fatalf("golden file has %d vectors, want %d", len(vectors), len(goldenOrder))
	}
	for _, typ := range goldenOrder {
		t.Run(typ.String(), func(t *testing.T) {
			want, ok := vectors[typ.String()]
			if !ok {
				t.Fatalf("no golden vector for %v", typ)
			}
			// Byte-exact encode.
			got := AppendFrame(nil, typ, encodeMessage(typ, samples[typ]))
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding diverged from the golden vector —\n got %s\nwant %s\nThis is a wire-protocol break: if intentional, bump the version and regenerate with -update.",
					hex.EncodeToString(got), hex.EncodeToString(want))
			}
			// Byte-exact header: magic, version, type are at fixed offsets.
			if want[0] != Magic[0] || want[1] != Magic[1] || want[2] != Version || FrameType(want[3]) != typ {
				t.Fatalf("golden header bytes diverged: % x", want[:4])
			}
			// Decode of the vector reproduces the sample message.
			f, rest, err := DecodeFrame(want, 0)
			if err != nil || len(rest) != 0 {
				t.Fatalf("decode golden: err=%v rest=%d", err, len(rest))
			}
			m, err := decodeMessage(typ, f.Payload)
			if err != nil {
				t.Fatalf("decode golden payload: %v", err)
			}
			if !reflect.DeepEqual(m, samples[typ]) {
				t.Fatalf("golden decode diverged:\n got %#v\nwant %#v", m, samples[typ])
			}
		})
	}
}

// TestGoldenCoversEveryFrameType guards the suite itself: a frame type
// added to the protocol without a golden vector fails here, not in a
// future debugging session.
func TestGoldenCoversEveryFrameType(t *testing.T) {
	covered := map[FrameType]bool{}
	for _, typ := range goldenOrder {
		covered[typ] = true
	}
	var missing []string
	for typ := range frameTypeNames {
		if !covered[typ] {
			missing = append(missing, typ.String())
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("frame types without golden vectors: %v", missing)
	}
}

// readVectors reads a "<name> <hex>" vector file, skipping blank and
// comment lines.
func readVectors(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("vectors missing (run with -update to generate): %v", err)
	}
	defer f.Close()
	vectors := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad vector line: %q", line)
		}
		b, err := hex.DecodeString(hexStr)
		if err != nil {
			t.Fatalf("bad hex in vector line %q: %v", name, err)
		}
		vectors[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vectors
}
