package snoopd

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"snoopmva/internal/wire"
)

const (
	// wireHandshakeTimeout bounds the Hello/HelloAck exchange.
	wireHandshakeTimeout = 5 * time.Second
	// wireWriteTimeout is the per-frame write deadline: a client that
	// stops draining its socket loses the connection instead of pinning
	// solver goroutines behind a blocked write forever.
	wireWriteTimeout = 10 * time.Second
	// wireMaxInflight bounds concurrently executing requests per
	// connection. When it is full the read loop stops pulling frames, TCP
	// flow control pushes back to the client, and the client's write
	// deadline turns a persistent stall into a visible failure — that
	// chain is the per-connection backpressure story.
	wireMaxInflight = 32
)

// ServeWire serves the binary wire protocol on ln until ctx is canceled
// or Accept fails. Cancellation closes the listener and every
// established connection: read loops block in r.Next() with no
// deadline, so closing the socket is what unblocks them — without it a
// single idle keepalive client would pin the ctx.Done → return path
// (and the daemon's SIGTERM shutdown behind it) forever. In-flight
// solves observe the same ctx and wind down with their connections.
// Requests run through the same op path, admission gate and solve cache
// as the HTTP endpoints.
func (s *Server) ServeWire(ctx context.Context, ln net.Listener) error {
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for conn := range conns {
			_ = conn.Close()
		}
	})
	defer stop()
	var wg sync.WaitGroup
	var err error
	for ctx.Err() == nil {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if ctx.Err() == nil && !errors.Is(aerr, net.ErrClosed) {
				err = aerr
			}
			break
		}
		mu.Lock()
		if ctx.Err() != nil {
			// Cancellation raced the accept: the AfterFunc may have already
			// swept conns, so this connection must not be served.
			mu.Unlock()
			_ = conn.Close()
			break
		}
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveWireConn(ctx, conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return err
}

// wireConn serializes frame writes on one connection, coalescing
// concurrent ones: frames append to a pending buffer and whichever
// goroutine finds no flush in progress becomes the leader, writing the
// whole buffer in one syscall while later arrivals just append and
// leave — group commit. Under pipelining this turns one write syscall
// per response into one per batch, which is where the batched binary
// mode's throughput edge over request-per-write JSON comes from. A
// failed write marks the connection dead and closes it, which unblocks
// the read loop; per the protocol contract, nothing is ever written
// after a failure.
type wireConn struct {
	conn     net.Conn
	mu       sync.Mutex
	dead     bool
	buf      []byte
	flushing bool
}

func (wc *wireConn) write(typ wire.FrameType, payload []byte) {
	wc.mu.Lock()
	if wc.dead {
		wc.mu.Unlock()
		return
	}
	wc.buf = wire.AppendFrame(wc.buf, typ, payload)
	if wc.flushing {
		// The current leader's next pass picks this frame up.
		wc.mu.Unlock()
		return
	}
	wc.flushing = true
	//lint:allow ctxloop drains wc.buf, which only grows while request handlers are in flight; a failed write sets dead and exits
	for len(wc.buf) > 0 && !wc.dead {
		buf := wc.buf
		wc.buf = nil
		wc.mu.Unlock()
		_ = wc.conn.SetWriteDeadline(time.Now().Add(wireWriteTimeout))
		_, err := wc.conn.Write(buf)
		wc.mu.Lock()
		if err != nil {
			wc.dead = true
			_ = wc.conn.Close()
		}
	}
	wc.flushing = false
	wc.mu.Unlock()
}

// serveWireConn handshakes, then pipelines: request frames decode into
// BatchItems and fan out to bounded worker goroutines, and responses
// stream back in completion order. Any framing-layer failure —
// including an undecodable request payload — is connection-fatal, per
// the wire package's contract.
func (s *Server) serveWireConn(ctx context.Context, conn net.Conn) {
	defer func() { _ = conn.Close() }()
	s.wireConns.Inc()
	s.wireActive.Inc()
	defer s.wireActive.Dec()

	r := wire.NewReader(conn, wire.DefaultMaxPayload)
	wc := &wireConn{conn: conn}
	clientID, ok := s.wireHandshake(wc, r)
	if !ok {
		return
	}

	// Requests fan out to a pool of persistent workers, grown lazily up
	// to wireMaxInflight: under pipelining a worker is dispatched per
	// frame without a goroutine spawn per request, and when every worker
	// is busy the blocking send stops the read loop — TCP flow control
	// then pushes back to the client, which is the per-connection
	// backpressure story.
	jobs := make(chan BatchItem)
	workers := 0
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(jobs)
	var scratch []byte // response-payload buffer of the inline fast path
	for ctx.Err() == nil {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypePing:
			ping, perr := wire.DecodePing(f.Payload)
			if perr != nil {
				return
			}
			wc.write(wire.TypePong, wire.AppendPong(nil, &wire.Pong{Seq: ping.Seq, Draining: s.draining.Load()}))
		case wire.TypeSolveReq, wire.TypeSolveBestReq, wire.TypeSweepReq:
			it, ok := s.wireItem(f)
			if !ok {
				wc.fail()
				return
			}
			if f.Type == wire.TypeSolveReq && s.adm == nil {
				// Inline fast path: a plain MVA solve is microseconds —
				// cheaper than the worker handoff it would otherwise pay —
				// and with no admission gate there is nothing to queue on,
				// so the read loop answers directly. SolveBest and sweeps
				// (ms scale and up) still fan out to the pool, as does
				// everything when admission could make a request wait.
				scratch = wc.writeOutcome(scratch, it.Seq, s.exec(ctx, &it))
				continue
			}
			select {
			case jobs <- it: // an idle worker took it
				continue
			default:
			}
			if workers < wireMaxInflight {
				workers++
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []byte // this worker's response-payload buffer
					for it := range jobs {
						buf = wc.writeOutcome(buf, it.Seq, s.admitExec(ctx, clientID, &it))
					}
				}()
			}
			select {
			case jobs <- it:
			case <-ctx.Done():
				return
			}
		default:
			return // client sent a server-only frame type
		}
	}
}

// wireHandshake performs version negotiation: read the client's Hello,
// ack the highest version both ends speak. No overlap acks version 0
// (reserved: "no common version") so the client can fall back to HTTP
// instead of timing out; a Hello framed at an unknown version gets the
// same courtesy.
func (s *Server) wireHandshake(wc *wireConn, r *wire.Reader) (clientID string, ok bool) {
	_ = wc.conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout))
	f, err := r.Next()
	if err != nil {
		if wire.IsVersionMismatch(err) {
			wc.write(wire.TypeHelloAck, wire.AppendHelloAck(nil, &wire.HelloAck{Version: 0, ServerName: "snoopd"}))
		}
		return "", false
	}
	if f.Type != wire.TypeHello {
		return "", false
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return "", false
	}
	v := hello.MaxVersion
	if v > wire.MaxVersion {
		v = wire.MaxVersion
	}
	if v < wire.MinVersion || v < hello.MinVersion {
		wc.write(wire.TypeHelloAck, wire.AppendHelloAck(nil, &wire.HelloAck{Version: 0, ServerName: "snoopd"}))
		return "", false
	}
	_ = wc.conn.SetReadDeadline(time.Time{})
	wc.write(wire.TypeHelloAck, wire.AppendHelloAck(nil, &wire.HelloAck{Version: v, ServerName: "snoopd"}))
	return hello.ClientName, true
}

// wireItem decodes a request frame into the op it carries and counts
// it. ok is false for an undecodable payload.
func (s *Server) wireItem(f wire.Frame) (it BatchItem, ok bool) {
	var err error
	switch f.Type {
	case wire.TypeSolveReq:
		it.Solve = new(SolveRequest)
		it.Seq, *it.Solve, err = wire.DecodeSolveRequest(f.Payload)
	case wire.TypeSolveBestReq:
		it.SolveBest = new(SolveBestRequest)
		it.Seq, *it.SolveBest, err = wire.DecodeSolveBestRequest(f.Payload)
	default:
		it.Sweep = new(SweepRequest)
		it.Seq, *it.Sweep, err = wire.DecodeSweepRequest(f.Payload)
	}
	if err != nil {
		return BatchItem{}, false
	}
	s.wireRequests[f.Type].Inc()
	return it, true
}

// writeOutcome answers seq with the frame for oc — the kind's response
// frame, an Error frame, or a Backpressure frame for an admission shed
// (same code taxonomy and retry_after_ms precision as HTTP's 429/503) —
// encoding the payload into scratch, which it returns for reuse.
func (wc *wireConn) writeOutcome(scratch []byte, seq uint64, oc outcome) []byte {
	typ := wire.TypeSolveResp
	switch {
	case oc.err != nil:
		_, e, retry := failure(oc.err)
		if retry > 0 {
			typ, scratch = wire.TypeBackpressure, wire.AppendBackpressure(scratch[:0], &wire.BackpressureMsg{Seq: seq, Code: e.Code, RetryAfterMS: e.RetryAfterMS})
		} else {
			typ, scratch = wire.TypeError, wire.AppendError(scratch[:0], &wire.ErrorMsg{Seq: seq, Code: e.Code, Msg: e.Error})
		}
	case oc.kind == opSweep:
		typ, scratch = wire.TypeSweepResp, wire.AppendSweepResponse(scratch[:0], &wire.SweepResponse{Seq: seq, Results: oc.sweep})
	default:
		if oc.kind == opSolveBest {
			typ = wire.TypeSolveBestResp
		}
		scratch = wire.AppendSolveResponse(scratch[:0], &wire.SolveResponse{Seq: seq, Result: oc.res})
	}
	wc.write(typ, scratch)
	return scratch
}

// fail marks the connection dead and closes it: the request payload was
// structurally undecodable, which is framing-level corruption — the
// stream cannot be trusted past it.
func (wc *wireConn) fail() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.dead = true
	_ = wc.conn.Close()
}
