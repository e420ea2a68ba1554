package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
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
	// RedialAttempts is how many reconnect-with-resend attempts follow a
	// connection failure with requests in flight before those requests
	// are failed. Default 3.
	RedialAttempts int
	// RedialBackoff is the pause between redial attempts. Default 50ms.
	RedialBackoff time.Duration
	// ClientName travels in the Hello frame, the binary analogue of the
	// JSON API's X-Snoop-Client header (per-client rate limiting).
	ClientName string
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 3
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 50 * time.Millisecond
	}
	return o
}

// Client is a pipelining binary-protocol client over one persistent TCP
// connection. Calls are safe for concurrent use: each carries a
// client-chosen sequence id, the server streams answers back in
// completion order, and a background read loop matches them up. A
// connection failure with calls in flight triggers
// reconnect-with-resend: the client redials, replays every unanswered
// request frame, and the callers never notice. Construct with NewClient;
// Close releases the connection and fails anything still in flight.
type Client struct {
	addr   string
	opts   ClientOptions
	ctx    context.Context // client lifetime: bounds the read loop
	cancel context.CancelFunc

	mu      sync.Mutex
	conn    net.Conn
	reader  *Reader
	seq     uint64
	pending map[uint64]*pendingCall
	verErr  error // latched version-negotiation failure; permanent
	closed  bool
	// recovering is set while a reconnect-with-resend goroutine runs. The
	// redial loop sleeps and dials off the mutex (a held-through recovery
	// would pin every concurrent call — even ctx-expired ones — for up to
	// RedialAttempts × (backoff + DialTimeout)); this flag is what keeps
	// new calls from racing the half-rebuilt connection instead: they
	// register in pending without dialing and the recovery's resend pass
	// picks them up.
	recovering bool

	// Write coalescing: request frames append to wbuf under mu and the
	// connection's flush loop writes the accumulated buffer in one
	// syscall — group commit, so pipelined concurrent calls share write
	// syscalls instead of each paying for their own. flushWake is
	// broadcast when wbuf gains data or conn changes.
	wbuf      []byte
	flushWake *sync.Cond
}

// pendingCall is one in-flight request: the encoded frame (kept for
// resend after a reconnect), the caller's answer channel, and how many
// connection failures have been charged to it — the budget that keeps a
// poison request (one whose replay kills every connection) from holding
// the client in a dial loop forever.
type pendingCall struct {
	frame   []byte
	done    chan callResult
	resends int
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
		pending: map[uint64]*pendingCall{},
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
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.verErr != nil {
		err := c.verErr
		c.mu.Unlock()
		return nil, err
	}
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	done := make(chan callResult, len(reqs)) // each seq answers at most once
	index := make(map[uint64]int, len(reqs))
	for i, req := range reqs {
		c.seq++
		frame := AppendFrame(nil, TypeSolveReq, AppendSolveRequest(nil, c.seq, req))
		c.pending[c.seq] = &pendingCall{frame: frame, done: done}
		index[c.seq] = i
		c.sendLocked(frame)
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
	if c.closed {
		c.mu.Unlock()
		return callResult{}, ErrClientClosed
	}
	if c.verErr != nil {
		err := c.verErr
		c.mu.Unlock()
		return callResult{}, err
	}
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return callResult{}, err
	}
	c.seq++
	seq := c.seq
	call := &pendingCall{frame: encode(seq), done: make(chan callResult, 1)}
	c.pending[seq] = call
	c.sendLocked(call.frame)
	c.mu.Unlock()

	select {
	case res := <-call.done:
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

// ensureConnLocked dials and handshakes if no connection is live. While
// a recovery goroutine runs it reports success without dialing: the
// caller's pending entry rides the recovery's resend pass, and dialing
// here would race the half-rebuilt connection.
func (c *Client) ensureConnLocked() error {
	if c.conn != nil || c.recovering {
		return nil
	}
	return c.dialLocked()
}

// dialLocked establishes a connection while holding the mutex (the
// first-call fast path, where nothing else is in flight to block). A
// server acking a version outside this client's range latches verErr —
// the permanent failure WireTransport's HTTP fallback keys on.
func (c *Client) dialLocked() error {
	conn, r, err := c.dial()
	if err != nil {
		if IsVersionMismatch(err) {
			c.verErr = err
		}
		return err
	}
	c.installLocked(conn, r)
	return nil
}

// dial establishes a connection: TCP with keepalive, then the
// Hello/HelloAck negotiation. It touches no client state beyond
// immutable fields, so the recovery goroutine may call it without
// holding the mutex.
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

// installLocked makes a freshly handshaken connection the live one and
// starts its read and flush loops.
func (c *Client) installLocked(conn net.Conn, r *Reader) {
	c.conn = conn
	c.reader = r
	// Frames buffered for the previous connection are covered by
	// resendLocked (their calls are still pending); flushing them here
	// would only duplicate the resends.
	c.wbuf = nil
	c.flushWake.Broadcast() // a superseded flush loop exits on this
	go c.readLoop(c.ctx, conn, r)
	//lint:allow spawnbound flushLoop exits when conn is superseded or the client closes: every path that replaces c.conn broadcasts flushWake, waking the Wait it blocks on
	go c.flushLoop(conn)
}

// sendLocked queues frame for the connection's flush loop — group
// commit: concurrent pipelined calls accumulate in wbuf and ride one
// write syscall. A write failure surfaces in the flush loop and
// triggers recovery (redial + resend), so the caller's pending entry —
// registered before the send — is replayed or failed; either way its
// done channel fires.
func (c *Client) sendLocked(frame []byte) {
	if c.conn == nil {
		c.recoverLocked(errors.New("wire: connection lost"))
		return
	}
	c.wbuf = append(c.wbuf, frame...)
	c.flushWake.Broadcast()
}

// flushLoop drains wbuf onto conn, one syscall per accumulated batch,
// until conn is superseded or the client closes. A failed or timed-out
// write (the client side of write backpressure) reports through
// connFailed exactly as a read failure would.
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
// calls until the connection or the client dies. A connection failure
// with calls in flight hands off to recovery.
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
	call := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if call != nil {
		res.seq = seq
		call.done <- res
	}
}

// connFailed is the read loop's exit report: if conn is still the live
// connection, tear it down and recover the in-flight calls.
func (c *Client) connFailed(conn net.Conn, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn {
		return // a newer connection superseded this loop already
	}
	c.conn = nil
	_ = conn.Close()
	c.flushWake.Broadcast()
	c.recoverLocked(cause)
}

// recoverLocked triages a connection failure: permanent failures (client
// closed, protocol violation) fail the in-flight calls on the spot;
// transient ones charge each call's resend budget and hand off to a
// recover goroutine, which redials and resends off the mutex. The lock
// is held only for this triage, so concurrent calls — in particular
// ctx-expired callers that need the lock just to abandon their pending
// entry — are never pinned behind the redial loop's sleeps and dials.
func (c *Client) recoverLocked(cause error) {
	if c.closed {
		c.failAllLocked(ErrClientClosed)
		return
	}
	// A framing-layer failure is not a transient connection loss: the
	// peer violated the protocol, and replaying the same bytes at it
	// would loop. Fail the in-flight calls instead of redialing.
	var pe *ProtocolError
	if errors.As(cause, &pe) {
		c.failAllLocked(cause)
		return
	}
	if c.recovering {
		// The running recovery's resend pass replays everything still in
		// pending — including calls registered after it started. Charging
		// resend budget again here would double-bill one failure.
		return
	}
	// Charge the failure to every in-flight call and fail the ones that
	// have exhausted their resend budget, so one request that reliably
	// kills the connection cannot pin the healthy ones in perpetual
	// reconnection.
	for seq, call := range c.pending {
		call.resends++
		if call.resends > c.opts.RedialAttempts {
			delete(c.pending, seq)
			call.done <- callResult{seq: seq, err: fmt.Errorf("wire: request failed after %d resends: %w", call.resends-1, cause)}
		}
	}
	if len(c.pending) == 0 {
		return // nothing in flight; the next call dials fresh
	}
	c.recovering = true
	//lint:allow spawnbound recover's redial loop runs at most RedialAttempts iterations, each bounded by backoff + DialTimeout, and every exit path clears recovering
	go c.recover(cause)
}

// recover is reconnect-with-resend: redial (bounded attempts with
// backoff) and replay every unanswered request frame; if recovery fails,
// fail them all with the last error. It runs in its own goroutine and
// takes the mutex only to inspect state and to install/resend — the
// sleeps and dials that dominate its runtime happen unlocked.
func (c *Client) recover(cause error) {
	lastErr := cause
	for attempt := 0; attempt < c.opts.RedialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.opts.RedialBackoff)
		}
		c.mu.Lock()
		if c.closed || c.ctx.Err() != nil {
			c.finishRecoverLocked(ErrClientClosed)
			return
		}
		if len(c.pending) == 0 {
			// Every in-flight caller gave up (ctx cancellation) while we
			// were redialing; the next call dials fresh.
			c.recovering = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		conn, r, err := c.dial()

		c.mu.Lock()
		if c.closed {
			if err == nil {
				_ = conn.Close()
			}
			c.finishRecoverLocked(ErrClientClosed)
			return
		}
		if err != nil {
			lastErr = err
			if IsVersionMismatch(err) {
				c.verErr = err
				c.finishRecoverLocked(err)
				return
			}
			c.mu.Unlock()
			continue
		}
		c.installLocked(conn, r)
		if err := c.resendLocked(); err != nil {
			lastErr = err
			c.mu.Unlock()
			continue
		}
		c.recovering = false
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.finishRecoverLocked(lastErr)
}

// finishRecoverLocked ends a failed recovery: fail everything still
// pending with err and clear the recovering flag. Called with the mutex
// held; releases it.
func (c *Client) finishRecoverLocked(err error) {
	c.failAllLocked(err)
	c.recovering = false
	c.mu.Unlock()
}

// resendLocked replays every pending request frame, in sequence order
// for determinism, on the freshly dialed connection.
func (c *Client) resendLocked() error {
	seqs := make([]uint64, 0, len(c.pending))
	for seq := range c.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		conn := c.conn
		if conn == nil {
			return errors.New("wire: connection lost during resend")
		}
		_ = conn.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
		if _, err := conn.Write(c.pending[seq].frame); err != nil {
			c.conn = nil
			_ = conn.Close()
			c.flushWake.Broadcast() // the dead conn's flush loop exits on this
			return fmt.Errorf("wire: resend: %w", err)
		}
	}
	return nil
}

// failAllLocked fails every pending call with err and clears the map.
func (c *Client) failAllLocked(err error) {
	for seq, call := range c.pending {
		delete(c.pending, seq)
		call.done <- callResult{seq: seq, err: err}
	}
}
