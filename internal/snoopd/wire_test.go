package snoopd

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/wire"
)

// startWire serves s's binary wire listener on a loopback port and
// returns its address. The listener drains on test cleanup.
func startWire(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeWire(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeWire: %v", err)
		}
	})
	return ln.Addr().String()
}

// wireClient returns a connected client for the server's wire listener.
func wireClient(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c := wire.NewClient(addr, wire.ClientOptions{ClientName: "equivalence-test"})
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// f64eq is bitwise float equality — the equivalence suite's contract is
// bit-identical results across transports, not approximate ones.
func f64eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameBits reports whether a and b agree in every field, floats by their
// bits (f64eq) and pointers by what they point to, so a field added to
// the answer record is compared without editing this suite.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return f64eq(a.Float(), b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// appendixA is the workload spec of an Appendix A sharing level.
func appendixA(level int) wire.WorkloadSpec { return wire.WorkloadSpec{AppendixA: &level} }

// eqCase is one request, sent over both transports.
type eqCase struct {
	name   string
	json   string          // JSON request body
	path   string          // JSON endpoint
	method snoopmva.Method // the rung a solvebest case must land on ("" for any)
}

// wireRequest strictly decodes a JSON request body into the request
// type of path, exactly as the endpoint does, so the same request can
// be sent over the wire.
func wireRequest(t *testing.T, path, body string) any {
	t.Helper()
	var it BatchItem
	v := it.arm(map[string]opKind{"/v1/solve": opSolve, "/v1/solvebest": opSolveBest, "/v1/sweep": opSweep}[path])
	if err := decode(httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)), v); err != nil {
		t.Fatalf("decode %s body: %v", path, err)
	}
	return v
}

func equivalenceCases(t *testing.T) []eqCase {
	base := snoopmva.AppendixA(snoopmva.Sharing20)
	params, err := json.Marshal(WorkloadParams{
		Tau: base.Tau, PPrivate: base.PPrivate, PSro: base.PSro, PSw: base.PSw,
		HPrivate: base.HPrivate, HSro: base.HSro, HSw: base.HSw,
		RPrivate: base.RPrivate, RSw: base.RSw,
		AmodPrivate: base.AmodPrivate, AmodSw: base.AmodSw,
		CsupplySro: base.CsupplySro, CsupplySw: base.CsupplySw,
		WbCsupply: base.WbCsupply, RepP: base.RepP, RepSw: base.RepSw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []eqCase{
		{
			name: "solve appendix",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 10}`,
			path: "/v1/solve",
		},
		{
			name: "solve params timing options mods",
			json: `{"protocol": {"mods": [1,2,3]}, "workload": {"params": ` + string(params) + `},
				"n": 8, "timing": {"d_mem": 5, "block_size": 8, "t_block": 8},
				"options": {"tolerance": 1e-8, "split_transaction_bus": true}}`,
			path: "/v1/solve",
		},
		{
			name: "solve stress",
			json: `{"protocol": {"name": "Write-Once"}, "workload": {"stress": true}, "n": 6}`,
			path: "/v1/solve",
		},
		{
			name: "solvebest mva-only budget",
			json: `{"protocol": {"name": "Berkeley"}, "workload": {"appendix_a": 1}, "n": 6,
				"budget": {"max_states": -1, "sim_cycles": -1, "seed": 7}}`,
			path: "/v1/solvebest",
		},
		{
			name:   "solvebest gtpn rung",
			json:   `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 3}`,
			path:   "/v1/solvebest",
			method: snoopmva.MethodGTPN,
		},
		{
			name: "solvebest simulator rung",
			json: `{"protocol": {"name": "Write-Once"}, "workload": {"appendix_a": 5}, "n": 4,
				"budget": {"max_states": -1, "sim_cycles": 20000, "seed": 11}}`,
			path:   "/v1/solvebest",
			method: snoopmva.MethodSimulation,
		},
		{
			name: "sweep serial",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 20}, "ns": [1, 2, 4, 8]}`,
			path: "/v1/sweep",
		},
		{
			name: "sweep parallel",
			json: `{"protocol": {"name": "Dragon"}, "workload": {"appendix_a": 5}, "ns": [2, 3, 5], "parallel": true}`,
			path: "/v1/sweep",
		},
	}
}

// TestWireJSONEquivalenceResults drives every request shape through the
// JSON endpoints and the binary listener of the same (uncached) Server
// and requires bitwise-identical results — floats compared by their
// IEEE-754 bits, not tolerance. This is the conformance proof that the
// binary protocol is an encoding of the same service, not a sibling
// implementation.
func TestWireJSONEquivalenceResults(t *testing.T) {
	s := newTestServer(t, Config{})
	c := wireClient(t, startWire(t, s))
	ctx := context.Background()

	compareResult := func(t *testing.T, j ResultJSON, w wire.Result) {
		t.Helper()
		if !sameBits(reflect.ValueOf(j), reflect.ValueOf(w)) {
			t.Fatalf("results diverge across transports:\n json %+v\n wire %+v", j, w)
		}
	}

	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, tc.path, tc.json)
			if rec.Code != http.StatusOK {
				t.Fatalf("json status %d: %s", rec.Code, rec.Body.String())
			}
			switch req := wireRequest(t, tc.path, tc.json).(type) {
			case *wire.SolveRequest:
				var jr SolveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
					t.Fatal(err)
				}
				wr, err := c.Solve(ctx, req)
				if err != nil {
					t.Fatalf("wire solve: %v", err)
				}
				compareResult(t, jr.Result, wr.Result)
			case *wire.SolveBestRequest:
				var jr ResultJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
					t.Fatal(err)
				}
				if tc.method != "" && jr.Method != tc.method {
					t.Fatalf("answered by %q, want the %q rung", jr.Method, tc.method)
				}
				wr, err := c.SolveBest(ctx, req)
				if err != nil {
					t.Fatalf("wire solvebest: %v", err)
				}
				compareResult(t, jr, wr.Result)
			case *wire.SweepRequest:
				var jr SweepResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
					t.Fatal(err)
				}
				wr, err := c.Sweep(ctx, req)
				if err != nil {
					t.Fatalf("wire sweep: %v", err)
				}
				if len(jr.Results) != len(wr.Results) {
					t.Fatalf("sweep lengths diverge: %d vs %d", len(jr.Results), len(wr.Results))
				}
				for i := range jr.Results {
					compareResult(t, jr.Results[i], wr.Results[i])
				}
			}
		})
	}
}

// TestWireJSONEquivalenceErrors drives failing requests through both
// transports: the error code AND the message text must be identical —
// the two surfaces share one taxonomy, not two parallel ones.
func TestWireJSONEquivalenceErrors(t *testing.T) {
	cases := []struct {
		name       string
		json       string
		path       string
		wantStatus int
		wantCode   string
		hooks      *faultinject.Set
	}{
		{
			name: "unknown protocol",
			json: `{"protocol": {"name": "MESIF"}, "workload": {"appendix_a": 5}, "n": 4}`,
			path: "/v1/solve", wantStatus: 400, wantCode: "invalid_input",
		},
		{
			name: "bad sharing level",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 7}, "n": 4}`,
			path: "/v1/solve", wantStatus: 400, wantCode: "invalid_input",
		},
		{
			name: "negative n",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": -3}`,
			path: "/v1/solve", wantStatus: 400, wantCode: "invalid_input",
		},
		{
			name: "negative timeout",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 4, "timeout_ms": -1}`,
			path: "/v1/solve", wantStatus: 400, wantCode: "invalid_input",
		},
		{
			name: "empty sweep ns",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "ns": []}`,
			path: "/v1/sweep", wantStatus: 400, wantCode: "invalid_input",
		},
		{
			name: "no convergence",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 6}`,
			path: "/v1/solve", wantStatus: 422, wantCode: "no_convergence",
			hooks: &faultinject.Set{MVAStall: func(int) bool { return true }},
		},
		{
			name: "diverged",
			json: `{"protocol": {"name": "Illinois"}, "workload": {"appendix_a": 5}, "n": 6}`,
			path: "/v1/solve", wantStatus: 422, wantCode: "diverged",
			hooks: &faultinject.Set{MVAPoison: func(int) (float64, bool) { return math.NaN(), true }},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.hooks != nil {
				restore := faultinject.Activate(tc.hooks)
				defer restore()
			}
			s := newTestServer(t, Config{})
			c := wireClient(t, startWire(t, s))

			rec := post(t, s, tc.path, tc.json)
			if rec.Code != tc.wantStatus {
				t.Fatalf("json status = %d, want %d: %s", rec.Code, tc.wantStatus, rec.Body.String())
			}
			je := decodeError(t, rec)
			if je.Code != tc.wantCode {
				t.Fatalf("json code = %q, want %q", je.Code, tc.wantCode)
			}

			var werr error
			switch req := wireRequest(t, tc.path, tc.json).(type) {
			case *wire.SolveRequest:
				_, werr = c.Solve(context.Background(), req)
			case *wire.SweepRequest:
				_, werr = c.Sweep(context.Background(), req)
			}
			re, ok := werr.(*wire.RequestError)
			if !ok {
				t.Fatalf("wire err = %v (%T), want *wire.RequestError", werr, werr)
			}
			if re.Code != je.Code || re.Msg != je.Error {
				t.Fatalf("taxonomy diverges across transports:\n json %q / %q\n wire %q / %q",
					je.Code, je.Error, re.Code, re.Msg)
			}
		})
	}
}

// TestWireBackpressureMatchesJSONShed saturates a one-slot admission
// controller and asserts both surfaces refuse identically: HTTP answers
// 429 {code: overloaded, retry_after_ms}, the wire listener answers a
// Backpressure frame with the same code and hint precision.
func TestWireBackpressureMatchesJSONShed(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	entered := make(chan struct{}, 8)
	restore := faultinject.Activate(&faultinject.Set{
		SolveDelay: func(int) time.Duration {
			entered <- struct{}{}
			<-block
			return 0
		},
	})
	defer restore()

	ctrl := newAdmission(t, admission.Config{MaxInflight: 1, QueueLimit: -1, Target: time.Second})
	s := newTestServer(t, Config{Admission: ctrl})
	c := wireClient(t, startWire(t, s))

	// Occupy the only slot through the wire path.
	solveDone := make(chan error, 1)
	go func() {
		_, err := c.Solve(context.Background(), &wire.SolveRequest{
			Protocol: wire.ProtocolSpec{Name: "Illinois"},
			Workload: appendixA(5),
			N:        4,
		})
		solveDone <- err
	}()
	<-entered

	// JSON shed.
	rec := post(t, s, "/v1/solve", solveBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("json status = %d, want 429", rec.Code)
	}
	je := decodeError(t, rec)
	if je.Code != "overloaded" || je.RetryAfterMS <= 0 {
		t.Fatalf("json shed = %+v", je)
	}

	// Wire shed, same code, same hint semantics.
	_, werr := c.Solve(context.Background(), &wire.SolveRequest{
		Protocol: wire.ProtocolSpec{Name: "Illinois"},
		Workload: appendixA(5),
		N:        5,
	})
	bp, ok := werr.(*wire.BackpressureError)
	if !ok {
		t.Fatalf("wire err = %v (%T), want *wire.BackpressureError", werr, werr)
	}
	if bp.Code != je.Code {
		t.Fatalf("shed codes diverge: json %q, wire %q", je.Code, bp.Code)
	}
	if bp.RetryAfter <= 0 {
		t.Fatalf("wire shed without retry hint: %+v", bp)
	}

	unblock()
	blockOnce(t, solveDone)
}

// blockOnce unblocks the occupied slot and requires the occupant's
// success.
func blockOnce(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("occupant solve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("occupant solve never finished")
	}
}

// TestWireHandshakeNegotiation covers the raw handshake surface: a
// compatible Hello is acked at the common version; an incompatible one
// is acked version 0 (the reserved "no common version" answer) and the
// connection closes; a frame at an unknown version gets the same
// courtesy.
func TestWireHandshakeNegotiation(t *testing.T) {
	s := newTestServer(t, Config{})
	addr := startWire(t, s)

	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	readAck := func(t *testing.T, conn net.Conn) wire.HelloAck {
		t.Helper()
		r := wire.NewReader(conn, 0)
		f, err := r.Next()
		if err != nil {
			t.Fatalf("read ack: %v", err)
		}
		if f.Type != wire.TypeHelloAck {
			t.Fatalf("frame = %v, want hello_ack", f.Type)
		}
		ack, err := wire.DecodeHelloAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}

	t.Run("compatible", func(t *testing.T) {
		conn := dial(t)
		hello := wire.AppendFrame(nil, wire.TypeHello, wire.AppendHello(nil, &wire.Hello{
			MinVersion: wire.MinVersion, MaxVersion: wire.MaxVersion + 7, ClientName: "future-client",
		}))
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		if ack := readAck(t, conn); ack.Version != wire.MaxVersion {
			t.Fatalf("ack version = %d, want %d (highest common)", ack.Version, wire.MaxVersion)
		}
	})

	t.Run("no overlap", func(t *testing.T) {
		conn := dial(t)
		hello := wire.AppendFrame(nil, wire.TypeHello, wire.AppendHello(nil, &wire.Hello{
			MinVersion: wire.MaxVersion + 1, MaxVersion: wire.MaxVersion + 9, ClientName: "v9-only",
		}))
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		if ack := readAck(t, conn); ack.Version != 0 {
			t.Fatalf("ack version = %d, want 0 (no common version)", ack.Version)
		}
	})

	// A future peer, and a version-1 peer (whose narrower response
	// payloads this server no longer writes), both get "no common
	// version", which sends a WireTransport back to HTTP.
	for name, v := range map[string]uint32{"frame version skew": wire.Version + 1, "version 1 peer": 1} {
		t.Run(name, func(t *testing.T) {
			conn := dial(t)
			hello := wire.AppendFrame(nil, wire.TypeHello, wire.AppendHello(nil, &wire.Hello{
				MinVersion: v, MaxVersion: v,
			}))
			hello[2] = byte(v) // frame-level version byte the server does not speak
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
			if ack := readAck(t, conn); ack.Version != 0 {
				t.Fatalf("ack version = %d, want 0", ack.Version)
			}
		})
	}

	t.Run("not a hello", func(t *testing.T) {
		conn := dial(t)
		ping := wire.AppendFrame(nil, wire.TypePing, wire.AppendPing(nil, &wire.Ping{Seq: 1}))
		if _, err := conn.Write(ping); err != nil {
			t.Fatal(err)
		}
		// No ack; the server hangs up.
		r := wire.NewReader(conn, 0)
		if f, err := r.Next(); err == nil {
			t.Fatalf("server answered a pre-handshake ping with %v", f.Type)
		}
	})
}

// TestWirePingReportsDrain: Pong carries the drain flag, the binary
// analogue of /healthz flipping to 503.
func TestWirePingReportsDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	c := wireClient(t, startWire(t, s))
	pong, err := c.Ping(context.Background())
	if err != nil || pong.Draining {
		t.Fatalf("pre-drain ping: %+v, %v", pong, err)
	}
	s.BeginDrain()
	pong, err = c.Ping(context.Background())
	if err != nil || !pong.Draining {
		t.Fatalf("post-drain ping: %+v, %v", pong, err)
	}
	// The JSON surface agrees.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503 while draining", w.Code)
	}
}

// TestWireUndecodablePayloadKillsConnection: a structurally corrupt
// request payload is framing-level corruption — the connection dies
// rather than guessing at the stream position.
func TestWireUndecodablePayloadKillsConnection(t *testing.T) {
	s := newTestServer(t, Config{})
	addr := startWire(t, s)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := wire.AppendFrame(nil, wire.TypeHello, wire.AppendHello(nil, &wire.Hello{
		MinVersion: wire.MinVersion, MaxVersion: wire.MaxVersion,
	}))
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn, 0)
	if f, err := r.Next(); err != nil || f.Type != wire.TypeHelloAck {
		t.Fatalf("handshake: %v %v", f.Type, err)
	}
	// A well-framed request whose payload is garbage.
	garbage := wire.AppendFrame(nil, wire.TypeSolveReq, []byte{0xFF, 0xFF, 0xFF})
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if f, err := r.Next(); err == nil {
		t.Fatalf("server answered a garbage payload with %v instead of closing", f.Type)
	}
}

// TestWireMetrics: the listener's connection and request counters move.
func TestWireMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	c := wireClient(t, startWire(t, s))
	if _, err := c.Solve(context.Background(), &wire.SolveRequest{
		Protocol: wire.ProtocolSpec{Name: "Illinois"},
		Workload: appendixA(5),
		N:        4,
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`snoopmva_wire_connections_total 1`,
		`snoopmva_wire_requests_total{type="solve_req"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestWireSolveBatchMatchesSingles drives a pipelined SolveBatch through
// the server's inline fast path (no admission, so the read loop answers
// each solve frame as it arrives) and checks every point against an
// individually-submitted solve: bitwise-identical results, per-point
// errors with the shared taxonomy, neighbors undisturbed.
func TestWireSolveBatchMatchesSingles(t *testing.T) {
	s := newTestServer(t, Config{})
	c := wireClient(t, startWire(t, s))
	ctx := context.Background()

	const points = 24
	reqs := make([]*wire.SolveRequest, points)
	for i := range reqs {
		protos := []string{"Illinois", "Berkeley", "Write-Once"}
		reqs[i] = &wire.SolveRequest{
			Protocol: wire.ProtocolSpec{Name: protos[i%len(protos)]},
			Workload: appendixA(5),
			N:        i%16 + 1,
		}
	}
	reqs[7] = &wire.SolveRequest{ // one poisoned point mid-batch
		Protocol: wire.ProtocolSpec{Name: "NoSuchProtocol"},
		Workload: appendixA(5),
		N:        4,
	}

	out, err := c.SolveBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(out) != points {
		t.Fatalf("got %d results, want %d", len(out), points)
	}
	for i, res := range out {
		if i == 7 {
			var re *wire.RequestError
			if res.Err == nil || !errors.As(res.Err, &re) || re.Code != "invalid_input" {
				t.Fatalf("poisoned point: err = %v, want invalid_input RequestError", res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("point %d: %v", i, res.Err)
		}
		single := *reqs[i]
		want, err := c.Solve(ctx, &single)
		if err != nil {
			t.Fatalf("single solve %d: %v", i, err)
		}
		w, g := want.Result, res.Resp.Result
		if g.N != w.N || g.Iterations != w.Iterations || !f64eq(g.Speedup, w.Speedup) ||
			!f64eq(g.R, w.R) || !f64eq(g.BusUtilization, w.BusUtilization) ||
			!f64eq(g.MemUtilization, w.MemUtilization) {
			t.Fatalf("point %d: batch %+v != single %+v", i, g, w)
		}
	}
}
