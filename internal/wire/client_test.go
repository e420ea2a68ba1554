package wire

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"context"
)

// testServer is a scripted wire server: it accepts connections,
// performs the handshake (acking ackVersion), and hands every
// subsequent frame to handle, which returns the frames to write back
// (nil closes the connection — the mid-flight kill lever).
type testServer struct {
	t          *testing.T
	ln         net.Listener
	ackVersion uint32
	handle     func(conn int, f Frame) [][]byte
	dials      atomic.Int32
	wg         sync.WaitGroup
}

func newTestServer(t *testing.T, ackVersion uint32, handle func(conn int, f Frame) [][]byte) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &testServer{t: t, ln: ln, ackVersion: ackVersion, handle: handle}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() {
		_ = ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *testServer) addr() string { return s.ln.Addr().String() }

func (s *testServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		id := int(s.dials.Add(1))
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			r := NewReader(conn, 0)
			f, err := r.Next()
			if err != nil || f.Type != TypeHello {
				return
			}
			ack := AppendFrame(nil, TypeHelloAck, AppendHelloAck(nil, &HelloAck{Version: s.ackVersion, ServerName: "test"}))
			if _, err := conn.Write(ack); err != nil {
				return
			}
			if s.ackVersion < MinVersion || s.ackVersion > MaxVersion {
				return // client will hang up
			}
			for {
				f, err := r.Next()
				if err != nil {
					return
				}
				out := s.handle(id, Frame{Type: f.Type, Payload: append([]byte(nil), f.Payload...)})
				if out == nil {
					return // scripted kill
				}
				for _, frame := range out {
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}
		}()
	}
}

// echoSolve answers a solve request with a recognizable result.
func echoSolve(payload []byte) [][]byte {
	seq, req, err := DecodeSolveRequest(payload)
	if err != nil {
		return nil
	}
	resp := &SolveResponse{Seq: seq, Result: Result{N: req.N, Speedup: float64(req.N) / 2, Iterations: 3}}
	return [][]byte{AppendFrame(nil, TypeSolveResp, AppendSolveResponse(nil, resp))}
}

func solveReq(n int) *SolveRequest {
	return &SolveRequest{
		Protocol: ProtocolSpec{Name: "Illinois"},
		Workload: WorkloadSpec{AppendixA: intp(5)},
		N:        n,
	}
}

func TestClientRoundTripAndPipelining(t *testing.T) {
	srv := newTestServer(t, Version, func(_ int, f Frame) [][]byte {
		if f.Type != TypeSolveReq {
			t.Errorf("unexpected frame %v", f.Type)
			return nil
		}
		return echoSolve(f.Payload)
	})
	c := NewClient(srv.addr(), ClientOptions{})
	defer c.Close()

	const calls = 32
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Solve(context.Background(), solveReq(i+1))
			if err != nil {
				errs[i] = err
				return
			}
			if resp.Result.N != i+1 {
				t.Errorf("call %d: got N=%d", i, resp.Result.N)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if d := srv.dials.Load(); d != 1 {
		t.Fatalf("pipelined calls used %d connections, want 1", d)
	}
}

// TestClientConnectionLossFailsCall kills the connection after the
// first request frame arrives, unanswered. The call must fail with the
// read error — the client does not resend, and the client is not
// closed — and the next call must dial a second connection and succeed.
func TestClientConnectionLossFailsCall(t *testing.T) {
	srv := newTestServer(t, Version, func(conn int, f Frame) [][]byte {
		if conn == 1 {
			return nil // kill without answering
		}
		return echoSolve(f.Payload)
	})
	c := NewClient(srv.addr(), ClientOptions{})
	defer c.Close()

	_, err := c.Solve(context.Background(), solveReq(9))
	if err == nil || errors.Is(err, ErrClientClosed) || !strings.HasPrefix(err.Error(), "wire: read:") {
		t.Fatalf("err = %v, want the connection's read error", err)
	}
	resp, err := c.Solve(context.Background(), solveReq(9))
	if err != nil {
		t.Fatalf("call after the loss: %v", err)
	}
	if resp.Result.N != 9 {
		t.Fatalf("N = %d", resp.Result.N)
	}
	if d := srv.dials.Load(); d != 2 {
		t.Fatalf("dials = %d, want 2 (original + the next call's)", d)
	}
}

// TestClientVersionMismatchLatches: a server answering HelloAck
// version 0 ("no common version") fails the call with the permanent
// version error, and later calls fail fast without redialing.
func TestClientVersionMismatchLatches(t *testing.T) {
	srv := newTestServer(t, 0, func(int, Frame) [][]byte { return nil })
	c := NewClient(srv.addr(), ClientOptions{})
	defer c.Close()

	_, err := c.Solve(context.Background(), solveReq(1))
	if !IsVersionMismatch(err) {
		t.Fatalf("err = %v, want version mismatch", err)
	}
	dialsAfterFirst := srv.dials.Load()
	_, err = c.Ping(context.Background())
	if !IsVersionMismatch(err) {
		t.Fatalf("second call: err = %v, want latched version mismatch", err)
	}
	if d := srv.dials.Load(); d != dialsAfterFirst {
		t.Fatalf("latched client redialed: %d → %d", dialsAfterFirst, d)
	}
}

// TestClientErrorAndBackpressureFrames: Error frames surface as
// *RequestError and Backpressure frames as *BackpressureError, both
// leaving the connection healthy for later calls.
func TestClientErrorAndBackpressureFrames(t *testing.T) {
	var mode atomic.Int32 // 0: error, 1: backpressure, 2: echo
	srv := newTestServer(t, Version, func(_ int, f Frame) [][]byte {
		seq, _ := PeekSeq(f.Payload)
		switch mode.Load() {
		case 0:
			return [][]byte{AppendFrame(nil, TypeError, AppendError(nil, &ErrorMsg{
				Seq: seq, Code: "no_convergence", Msg: "mva: iteration stall",
			}))}
		case 1:
			return [][]byte{AppendFrame(nil, TypeBackpressure, AppendBackpressure(nil, &BackpressureMsg{
				Seq: seq, Code: "overloaded", RetryAfterMS: 40,
			}))}
		default:
			return echoSolve(f.Payload)
		}
	})
	c := NewClient(srv.addr(), ClientOptions{})
	defer c.Close()

	_, err := c.Solve(context.Background(), solveReq(4))
	var re *RequestError
	if !errors.As(err, &re) || re.Code != "no_convergence" || re.Msg != "mva: iteration stall" {
		t.Fatalf("err = %v, want RequestError(no_convergence)", err)
	}

	mode.Store(1)
	_, err = c.Solve(context.Background(), solveReq(4))
	var bp *BackpressureError
	if !errors.As(err, &bp) || bp.Code != "overloaded" || bp.RetryAfter != 40*time.Millisecond {
		t.Fatalf("err = %v, want BackpressureError(overloaded, 40ms)", err)
	}

	mode.Store(2)
	if _, err := c.Solve(context.Background(), solveReq(4)); err != nil {
		t.Fatalf("connection did not survive error frames: %v", err)
	}
	if d := srv.dials.Load(); d != 1 {
		t.Fatalf("dials = %d, want 1 — error frames must not burn the connection", d)
	}
}

// TestClientContextCancel: a canceled context releases the caller
// immediately and the pending entry is dropped, so a late answer for
// that seq is discarded rather than delivered to nobody.
func TestClientContextCancel(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	srv := newTestServer(t, Version, func(_ int, f Frame) [][]byte {
		<-block
		return echoSolve(f.Payload)
	})
	c := NewClient(srv.addr(), ClientOptions{})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, solveReq(2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled call did not return")
	}
	unblock() // let the server answer into the void
	// A fresh call on the same connection still works.
	if _, err := c.Solve(context.Background(), solveReq(2)); err != nil {
		t.Fatalf("post-cancel call: %v", err)
	}
}

// TestClientClose fails in-flight calls with ErrClientClosed and makes
// later calls fail the same way.
func TestClientClose(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := newTestServer(t, Version, func(_ int, f Frame) [][]byte {
		<-block
		return echoSolve(f.Payload)
	})
	c := NewClient(srv.addr(), ClientOptions{})

	done := make(chan error, 1)
	go func() {
		_, err := c.Solve(context.Background(), solveReq(2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("in-flight err = %v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call did not fail on Close")
	}
	if _, err := c.Solve(context.Background(), solveReq(2)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close err = %v, want ErrClientClosed", err)
	}
}

// TestClientDialFailure: a dead address fails the call with a dial
// error, not a hang, and IsVersionMismatch stays false.
func TestClientDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // nothing listens here now
	c := NewClient(addr, ClientOptions{DialTimeout: 500 * time.Millisecond})
	defer c.Close()
	_, err = c.Solve(context.Background(), solveReq(1))
	if err == nil {
		t.Fatal("expected dial failure")
	}
	if IsVersionMismatch(err) {
		t.Fatalf("dial failure misclassified as version mismatch: %v", err)
	}
}

// TestClientServerSentGarbage: a stream that stops being frames is
// connection-fatal; with no redial success the caller sees the error.
func TestClientServerSentGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := NewReader(conn, 0)
				if f, err := r.Next(); err != nil || f.Type != TypeHello {
					return
				}
				_, _ = conn.Write(AppendFrame(nil, TypeHelloAck, AppendHelloAck(nil, &HelloAck{Version: Version})))
				if _, err := r.Next(); err != nil {
					return
				}
				_, _ = conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
				// Hold the connection open so the failure is the garbage,
				// not an EOF race; the client read loop errors first.
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	c := NewClient(ln.Addr().String(), ClientOptions{})
	defer c.Close()
	_, err = c.Solve(context.Background(), solveReq(1))
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProtocolError", err)
	}
}
