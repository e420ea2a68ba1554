package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("wire: client closed")

// RequestError is the client-side form of an Error frame: the server's
// authoritative answer that this request failed, carrying the same code
// taxonomy as the JSON API's ErrorResponse. It does not disturb the
// connection.
type RequestError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("wire: server error (%s): %s", e.Code, e.Msg)
}

// BackpressureError is the client-side form of a Backpressure frame: the
// server's admission controller refused the request. The binary analogue
// of a 429/503 shed, with the same Retry-After hint.
type BackpressureError struct {
	Code       string
	RetryAfter time.Duration
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("wire: backpressure (%s): retry after %v", e.Code, e.RetryAfter)
}

// IsVersionMismatch reports whether err is the version-negotiation
// failure — the one *ProtocolError a client should not treat as
// transient, and the dispatch WireTransport's cue to fall back to HTTP.
func IsVersionMismatch(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe) && pe.Kind == KindVersion
}

// clientWriteTimeout bounds each frame write — the client side of write
// backpressure: a peer that stops draining fails the connection instead
// of wedging callers forever.
const clientWriteTimeout = 10 * time.Second

// ClientOptions tune a Client. The zero value means the defaults noted
// on each field.
type ClientOptions struct {
	// DialTimeout bounds connection establishment including the
	// Hello/HelloAck handshake. Default 5s.
	DialTimeout time.Duration
	// ClientName travels in the Hello frame, the binary analogue of the
	// JSON API's X-Snoop-Client header (per-client rate limiting).
	ClientName string
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// Client is a pipelining binary-protocol client over one persistent TCP
// connection. Calls are safe for concurrent use: each carries a
// client-chosen sequence id, the server streams answers back in
// completion order, and a background read loop matches them up. A
// connection failure fails every call in flight on it with the
// failure's cause, and the next call dials afresh. The client never
// resends: whether a lost answer is worth another try is the caller's
// call (the dispatch coordinator requeues the point). Construct with
// NewClient; Close releases the connection and fails anything still in
// flight with ErrClientClosed.
type Client struct {
	addr   string
	opts   ClientOptions
	ctx    context.Context // client lifetime: bounds the read loop
	cancel context.CancelFunc

	mu      sync.Mutex
	conn    net.Conn
	seq     uint64
	pending map[uint64]chan callResult // in-flight calls' answer channels
	verErr  error                      // latched version-negotiation failure; permanent
	closed  bool

	// Write coalescing: request frames append to wbuf under mu and the
	// connection's flush loop writes the accumulated buffer in one
	// syscall — group commit, so pipelined concurrent calls share write
	// syscalls instead of each paying for their own. flushWake is
	// broadcast when wbuf gains data or conn changes.
	wbuf      []byte
	flushWake *sync.Cond
}

type callResult struct {
	seq     uint64 // which request this answers (batch demultiplexing)
	typ     FrameType
	payload []byte // copied out of the read buffer
	err     error
}

// NewClient returns a Client for the server at addr. The connection is
// established lazily on the first call.
func NewClient(addr string, opts ClientOptions) *Client {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		addr:    addr,
		opts:    opts.withDefaults(),
		ctx:     ctx,
		cancel:  cancel,
		pending: map[uint64]chan callResult{},
	}
	c.flushWake = sync.NewCond(&c.mu)
	return c
}

// Addr returns the server address the client dials.
func (c *Client) Addr() string { return c.addr }

// Close tears down the connection and fails every in-flight call with
// ErrClientClosed. Further calls fail the same way.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.cancel()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.flushWake.Broadcast()
	c.failAllLocked(ErrClientClosed)
	return nil
}

// Solve round-trips a solve request under a sequence id the client
// assigns.
func (c *Client) Solve(ctx context.Context, req *SolveRequest) (SolveResponse, error) {
	res, err := c.roundTrip(ctx, func(seq uint64) []byte {
		return AppendFrame(nil, TypeSolveReq, AppendSolveRequest(nil, seq, req))
	})
	if err == nil {
		err = unexpectedType(res, TypeSolveResp)
	}
	if err != nil {
		return SolveResponse{}, err
	}
	return DecodeSolveResponse(res.payload)
}

// SolveBatchResult is one point's outcome in a SolveBatch call: either
// the response or a per-point error (a *RequestError or
// *BackpressureError carries the server's answer for that point without
// disturbing its neighbors).
type SolveBatchResult struct {
	Resp SolveResponse
	Err  error
}

// SolveBatch pipelines many solve requests as one batch: every frame is
// queued before the first flush, so the whole batch typically rides one
// write syscall out and a few reads back — the binary analogue of the
// JSON API's POST /v1/batch, and the shape snoopbench's batch_binary
// phase measures. The server answers each frame exactly as it would a
// lone request. Results are positional (out[i] answers reqs[i]); per-point
// failures land in the point's Err, and only client-level failures
// (closed, version mismatch, ctx cancellation) fail the call as a
// whole. The client assigns the sequence ids.
func (c *Client) SolveBatch(ctx context.Context, reqs []*SolveRequest) ([]SolveBatchResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	done := make(chan callResult, len(reqs)) // each seq answers at most once
	index := make(map[uint64]int, len(reqs))
	for i, req := range reqs {
		c.seq++
		c.pending[c.seq] = done
		index[c.seq] = i
		c.sendLocked(AppendFrame(nil, TypeSolveReq, AppendSolveRequest(nil, c.seq, req)))
	}
	c.mu.Unlock()

	out := make([]SolveBatchResult, len(reqs))
	for len(index) > 0 {
		select {
		case res := <-done:
			i, ok := index[res.seq]
			if !ok {
				continue // duplicate answer for an already-settled point
			}
			delete(index, res.seq)
			err := res.err
			if err == nil {
				err = unexpectedType(res, TypeSolveResp)
			}
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i].Resp, out[i].Err = DecodeSolveResponse(res.payload)
		case <-ctx.Done():
			c.mu.Lock()
			for seq := range index {
				delete(c.pending, seq)
			}
			c.mu.Unlock()
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// SolveBest round-trips a solvebest request under a sequence id the
// client assigns; the answer arrives as a TypeSolveBestResp frame.
func (c *Client) SolveBest(ctx context.Context, req *SolveBestRequest) (SolveResponse, error) {
	res, err := c.roundTrip(ctx, func(seq uint64) []byte {
		return AppendFrame(nil, TypeSolveBestReq, AppendSolveBestRequest(nil, seq, req))
	})
	if err == nil {
		err = unexpectedType(res, TypeSolveBestResp)
	}
	if err != nil {
		return SolveResponse{}, err
	}
	return DecodeSolveResponse(res.payload)
}

// Sweep round-trips a sweep request under a sequence id the client
// assigns.
func (c *Client) Sweep(ctx context.Context, req *SweepRequest) (SweepResponse, error) {
	res, err := c.roundTrip(ctx, func(seq uint64) []byte {
		return AppendFrame(nil, TypeSweepReq, AppendSweepRequest(nil, seq, req))
	})
	if err == nil {
		err = unexpectedType(res, TypeSweepResp)
	}
	if err != nil {
		return SweepResponse{}, err
	}
	return DecodeSweepResponse(res.payload)
}

// Ping round-trips a liveness probe, reporting the server's drain state.
func (c *Client) Ping(ctx context.Context) (Pong, error) {
	res, err := c.roundTrip(ctx, func(seq uint64) []byte {
		return AppendFrame(nil, TypePing, AppendPing(nil, &Ping{Seq: seq}))
	})
	if err == nil {
		err = unexpectedType(res, TypePong)
	}
	if err != nil {
		return Pong{}, err
	}
	return DecodePong(res.payload)
}

// unexpectedType maps a non-want response onto the error taxonomy:
// Error frames become *RequestError, Backpressure frames become
// *BackpressureError, anything else is a malformed conversation.
func unexpectedType(res callResult, want FrameType) error {
	switch res.typ {
	case want:
		return nil
	case TypeError:
		m, err := DecodeError(res.payload)
		if err != nil {
			return err
		}
		return &RequestError{Code: m.Code, Msg: m.Msg}
	case TypeBackpressure:
		m, err := DecodeBackpressure(res.payload)
		if err != nil {
			return err
		}
		return &BackpressureError{Code: m.Code, RetryAfter: time.Duration(m.RetryAfterMS) * time.Millisecond}
	default:
		return errMalformed("server answered a %v request with a %v frame", want, res.typ)
	}
}

// roundTrip registers a pending call, sends its frame, and waits for the
// matching response or ctx cancellation. encode receives the assigned
// sequence id and returns the complete request frame.
func (c *Client) roundTrip(ctx context.Context, encode func(seq uint64) []byte) (callResult, error) {
	c.mu.Lock()
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return callResult{}, err
	}
	c.seq++
	seq := c.seq
	done := make(chan callResult, 1)
	c.pending[seq] = done
	c.sendLocked(encode(seq))
	c.mu.Unlock()

	select {
	case res := <-done:
		if res.err != nil {
			return callResult{}, res.err
		}
		return res, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return callResult{}, ctx.Err()
	}
}

// ensureConnLocked readies the client for a call: it fails a closed or
// version-latched client, and dials and handshakes if no connection is
// live, starting its read and flush loops. The dial holds the mutex, so
// concurrent calls share one dial instead of racing their own. A server
// acking a version outside this client's range latches verErr — the
// permanent failure WireTransport's HTTP fallback keys on.
func (c *Client) ensureConnLocked() error {
	switch {
	case c.closed:
		return ErrClientClosed
	case c.verErr != nil:
		return c.verErr
	case c.conn != nil:
		return nil
	}
	conn, r, err := c.dial()
	if err != nil {
		if IsVersionMismatch(err) {
			c.verErr = err
		}
		return err
	}
	c.conn = conn
	go c.readLoop(c.ctx, conn, r)
	//lint:allow spawnbound flushLoop exits when conn fails or the client closes: both paths clear c.conn and broadcast flushWake, waking the Wait it blocks on
	go c.flushLoop(conn)
	return nil
}

// dial establishes a connection: TCP with keepalive, then the
// Hello/HelloAck negotiation. It touches no client state beyond
// immutable fields.
func (c *Client) dial() (net.Conn, *Reader, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout, KeepAlive: 30 * time.Second}
	conn, err := d.DialContext(c.ctx, "tcp", c.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	deadline := time.Now().Add(c.opts.DialTimeout)
	_ = conn.SetDeadline(deadline)
	hello := AppendFrame(nil, TypeHello, AppendHello(nil, &Hello{
		MinVersion: MinVersion, MaxVersion: MaxVersion, ClientName: c.opts.ClientName,
	}))
	if _, err := conn.Write(hello); err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("wire: handshake write: %w", err)
	}
	r := NewReader(conn, DefaultMaxPayload)
	f, err := r.Next()
	if err != nil {
		_ = conn.Close()
		if IsVersionMismatch(err) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	if f.Type != TypeHelloAck {
		_ = conn.Close()
		return nil, nil, errMalformed("handshake: expected hello_ack, got %v", f.Type)
	}
	ack, err := DecodeHelloAck(f.Payload)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	if ack.Version < MinVersion || ack.Version > MaxVersion {
		_ = conn.Close()
		return nil, nil, &ProtocolError{Kind: KindVersion, Detail: fmt.Sprintf(
			"server negotiated version %d, this client speaks %d..%d", ack.Version, MinVersion, MaxVersion)}
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, r, nil
}

// sendLocked queues frame for the live connection's flush loop — group
// commit: concurrent pipelined calls accumulate in wbuf and ride one
// write syscall. A write failure surfaces in the flush loop, which
// fails the connection and with it the caller's pending entry
// (registered before the send).
func (c *Client) sendLocked(frame []byte) {
	c.wbuf = append(c.wbuf, frame...)
	c.flushWake.Broadcast()
}

// flushLoop drains wbuf onto conn, one syscall per accumulated batch,
// until conn fails or the client closes. A failed or timed-out write
// (the client side of write backpressure) reports through connFailed
// exactly as a read failure would.
func (c *Client) flushLoop(conn net.Conn) {
	c.mu.Lock()
	for {
		for c.conn == conn && len(c.wbuf) == 0 {
			c.flushWake.Wait()
		}
		if c.conn != conn {
			c.mu.Unlock()
			return
		}
		buf := c.wbuf
		c.wbuf = nil
		c.mu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
		if _, err := conn.Write(buf); err != nil {
			c.connFailed(conn, fmt.Errorf("wire: write: %w", err))
			return
		}
		c.mu.Lock()
	}
}

// readLoop decodes response frames and delivers them to their pending
// calls until the connection or the client dies.
func (c *Client) readLoop(ctx context.Context, conn net.Conn, r *Reader) {
	for ctx.Err() == nil {
		f, err := r.Next()
		if err != nil {
			c.connFailed(conn, fmt.Errorf("wire: read: %w", err))
			return
		}
		switch f.Type {
		case TypeSolveResp, TypeSolveBestResp, TypeSweepResp, TypePong, TypeError, TypeBackpressure:
			seq, ok := PeekSeq(f.Payload)
			if !ok {
				c.connFailed(conn, errMalformed("%v response without sequence id", f.Type))
				return
			}
			c.deliver(seq, callResult{typ: f.Type, payload: append([]byte(nil), f.Payload...)})
		default:
			c.connFailed(conn, errMalformed("unexpected %v frame from server", f.Type))
			return
		}
	}
}

// deliver hands a response to its pending call, if it is still wanted
// (the caller may have given up on ctx cancellation).
func (c *Client) deliver(seq uint64, res callResult) {
	c.mu.Lock()
	done := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if done != nil {
		res.seq = seq
		done <- res
	}
}

// connFailed is the read and flush loops' exit report: if conn is still
// the live connection, tear it down and fail every call in flight on it
// with cause. The next call dials afresh.
func (c *Client) connFailed(conn net.Conn, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn {
		return // Close or the other loop tore it down already
	}
	c.conn = nil
	c.wbuf = nil // the frames of calls failed below
	_ = conn.Close()
	c.flushWake.Broadcast() // conn's flush loop exits on this
	c.failAllLocked(cause)
}

// failAllLocked fails every pending call with err and clears the map.
func (c *Client) failAllLocked(err error) {
	for seq, done := range c.pending {
		delete(c.pending, seq)
		done <- callResult{seq: seq, err: err}
	}
}
