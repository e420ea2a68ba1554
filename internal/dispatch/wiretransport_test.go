package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
	"snoopmva/internal/wire"
)

// newWireWorker starts an in-process snoopd wire listener and returns
// its server and address.
func newWireWorker(t *testing.T, cfg snoopd.Config) (*snoopd.Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := snoopd.New(cfg)
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
	return s, ln.Addr().String()
}

// newWireTransport wraps NewWireTransport with cleanup.
func newWireTransport(t *testing.T, addr, httpBase string) *WireTransport {
	t.Helper()
	wt := NewWireTransport(addr, httpBase)
	t.Cleanup(func() { _ = wt.Close() })
	return wt
}

// point returns one deterministic mva-only campaign point.
func point(t *testing.T, n int) snoopmva.CampaignPoint {
	t.Helper()
	p, ok := snoopmva.ProtocolByName("Illinois")
	if !ok {
		t.Fatal("unknown protocol Illinois")
	}
	return snoopmva.CampaignPoint{
		Protocol: p, Workload: snoopmva.AppendixA(snoopmva.Sharing5), N: n, Budget: mvaOnly,
	}
}

// TestWireTransportCampaignMatchesLocal runs a campaign across three
// wire-transport workers: the distributed result set must be
// point-for-point identical to the single-process run — the
// binary-transport half of the equivalence proof — and the per-worker
// commit counts must sum to exactly the grid (each point committed once).
func TestWireTransportCampaignMatchesLocal(t *testing.T) {
	points := testGrid(t, 20)
	want := localReference(t, points)

	var ts []Transport
	for i := 0; i < 3; i++ {
		_, addr := newWireWorker(t, snoopd.Config{})
		ts = append(ts, newWireTransport(t, addr, ""))
	}
	c, err := New(quickCfg(ts))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	total := 0
	for _, n := range stats.WorkerCommits {
		total += n
	}
	if total != len(points) {
		t.Errorf("worker commits sum to %d, want %d (a mismatch means a lost or double-committed point)", total, len(points))
	}
}

// TestWireTransportRemoteError: an Error frame naming a permanent solver
// failure surfaces as an authoritative *RemoteError carrying the same
// root sentinel the local solver would return.
func TestWireTransportRemoteError(t *testing.T) {
	restore := faultinject.Activate(&faultinject.Set{
		MVAStall: func(int) bool { return true },
	})
	defer restore()
	_, addr := newWireWorker(t, snoopd.Config{})
	wt := newWireTransport(t, addr, "")

	pt := point(t, 6)
	_, err := wt.SolveBest(context.Background(), pt.Protocol, pt.Workload, pt.N, pt.Budget)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RemoteError", err, err)
	}
	if re.Code != "no_convergence" || !errors.Is(err, snoopmva.ErrNoConvergence) {
		t.Fatalf("RemoteError = %+v (code %q), want no_convergence wrapping ErrNoConvergence", re, re.Code)
	}
}

// TestWireTransportBackpressure: a Backpressure frame becomes a
// *BackpressureError with the shed code and a positive retry hint, which
// the coordinator's pacing logic honors.
func TestWireTransportBackpressure(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	entered := make(chan struct{}, 1)
	restore := faultinject.Activate(&faultinject.Set{
		SolveDelay: func(int) time.Duration {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-block
			return 0
		},
	})
	defer restore()

	reg := obs.NewRegistry()
	ctrl, err := admission.New(admission.Config{
		MaxInflight: 1, QueueLimit: -1, Target: time.Second, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := newWireWorker(t, snoopd.Config{Registry: reg, Admission: ctrl})
	wt := newWireTransport(t, addr, "")

	pt := point(t, 4)
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		_, _ = wt.SolveBest(context.Background(), pt.Protocol, pt.Workload, pt.N, pt.Budget)
	}()
	<-entered

	_, err = wt.SolveBest(context.Background(), pt.Protocol, pt.Workload, 5, pt.Budget)
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("err = %v (%T), want *BackpressureError", err, err)
	}
	if bp.Code != "overloaded" || bp.RetryAfter <= 0 || bp.Route != "wire" {
		t.Fatalf("BackpressureError = %+v", bp)
	}
	unblock()
	<-occupied
}

// ackZeroServer is a fake wire endpoint that speaks just enough protocol
// to refuse: it acks every Hello with version 0 ("no common version")
// and closes. dials counts accepted connections.
func ackZeroServer(t *testing.T) (addr string, dials *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	dials = new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				r := wire.NewReader(conn, 0)
				if f, err := r.Next(); err != nil || f.Type != wire.TypeHello {
					return
				}
				ack := wire.AppendFrame(nil, wire.TypeHelloAck,
					wire.AppendHelloAck(nil, &wire.HelloAck{Version: 0, ServerName: "fake"}))
				_, _ = conn.Write(ack)
			}(conn)
		}
	}()
	return ln.Addr().String(), dials
}

// TestWireTransportVersionMismatchFallsBack: a worker that negotiates no
// common version flips the transport onto its HTTP fallback — latched,
// so later calls go straight to JSON without re-dialing the wire port.
func TestWireTransportVersionMismatchFallsBack(t *testing.T) {
	wireAddr, dials := ackZeroServer(t)
	httpSrv := newWorker(t)
	wt := newWireTransport(t, wireAddr, httpSrv.URL)

	pt := point(t, 6)
	want, err := snoopmva.SolveBest(context.Background(), pt.Protocol, pt.Workload, pt.N, pt.Budget)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wt.SolveBest(context.Background(), pt.Protocol, pt.Workload, pt.N, pt.Budget)
	if err != nil {
		t.Fatalf("SolveBest after version mismatch: %v (want silent HTTP fallback)", err)
	}
	if got.Speedup != want.Speedup || got.Method != want.Method {
		t.Fatalf("fallback result diverges: %+v vs %+v", got, want)
	}
	if err := wt.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz after fallback: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("wire port dialed %d times, want exactly 1 (fallback must latch)", n)
	}
}

// TestWireTransportNoFallbackSurfacesMismatch: without an HTTP base the
// version mismatch is a transport failure, not a silent wrong answer.
func TestWireTransportNoFallbackSurfacesMismatch(t *testing.T) {
	wireAddr, _ := ackZeroServer(t)
	wt := newWireTransport(t, wireAddr, "")
	pt := point(t, 4)
	_, err := wt.SolveBest(context.Background(), pt.Protocol, pt.Workload, pt.N, pt.Budget)
	var te *TransportError
	if !errors.As(err, &te) || !wire.IsVersionMismatch(err) {
		t.Fatalf("err = %v (%T), want *TransportError wrapping the version mismatch", err, err)
	}
}

// TestWireTransportPartition: the faultinject.HTTPFault hook partitions
// a binary link under the "wire" route label. The coordinator must
// quarantine the cut worker and finish the whole grid — set-identical —
// on the healthy one, committing nothing through the partition.
func TestWireTransportPartition(t *testing.T) {
	points := testGrid(t, 12)
	want := localReference(t, points)

	_, cutAddr := newWireWorker(t, snoopd.Config{})
	_, okAddr := newWireWorker(t, snoopd.Config{})
	cut := newWireTransport(t, cutAddr, "")
	ok := newWireTransport(t, okAddr, "")

	restore := faultinject.Activate(&faultinject.Set{
		HTTPFault: func(addr, route string) (time.Duration, error) {
			if addr == cutAddr {
				if route != "wire" {
					t.Errorf("wire transport consulted fault hook with route %q", route)
				}
				return 0, errors.New("faultinject: partitioned")
			}
			return 0, nil
		},
	})
	defer restore()

	c, err := New(quickCfg([]Transport{cut, ok}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSameResults(t, want, got)
	if n := stats.WorkerCommits[cut.Addr()]; n != 0 {
		t.Errorf("partitioned worker committed %d points, want 0", n)
	}
	if n := stats.WorkerCommits[ok.Addr()]; n != len(points) {
		t.Errorf("healthy worker committed %d points, want %d", n, len(points))
	}
}

// killingProxy forwards bytes between a wire client and a worker but
// hard-closes every connection after proxying killAfter server frames
// past the handshake — repeated mid-campaign connection loss.
type killingProxy struct {
	ln        net.Listener
	target    string
	killAfter int
	wg        sync.WaitGroup
}

func startKillingProxy(t *testing.T, target string, killAfter int) *killingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killingProxy{ln: ln, target: target, killAfter: killAfter}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.pipe(conn)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *killingProxy) pipe(client net.Conn) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		_ = client.Close()
		return
	}
	kill := func() { _ = client.Close(); _ = server.Close() }
	var once sync.Once
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_, _ = io.Copy(server, client)
		once.Do(kill)
	}()
	defer once.Do(kill)
	r := wire.NewReader(server, 0)
	forwarded := 0
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		if _, err := client.Write(wire.AppendFrame(nil, f.Type, f.Payload)); err != nil {
			return
		}
		if f.Type != wire.TypeHelloAck {
			forwarded++
			if forwarded >= p.killAfter {
				return
			}
		}
	}
}

// TestWireTransportSeveredConnections: a campaign over a link that dies
// every few responses must still produce the exact local result set,
// committing no point twice. The wire client does not resend, so every
// point in flight on a severed connection fails as a transport error and
// the coordinator's requeue alone must bring it back; with eight slots
// one severed connection loses several points at once.
func TestWireTransportSeveredConnections(t *testing.T) {
	for _, inflight := range []int{1, 8} {
		t.Run(fmt.Sprintf("inflight=%d", inflight), func(t *testing.T) {
			points := testGrid(t, 16)
			want := localReference(t, points)

			_, addr := newWireWorker(t, snoopd.Config{})
			proxy := startKillingProxy(t, addr, 4)
			wt := newWireTransport(t, proxy.ln.Addr().String(), "")

			cfg := quickCfg([]Transport{wt})
			cfg.MaxInflight = inflight
			c, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			got, stats, err := c.Run(context.Background(), points)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			assertSameResults(t, want, got)
			total := 0
			for _, n := range stats.WorkerCommits {
				total += n
			}
			if total != len(points) {
				t.Errorf("worker commits sum to %d, want %d", total, len(points))
			}
			if inflight > 1 && stats.Redispatches == 0 {
				t.Error("no point was requeued: no connection was severed with points in flight")
			}
		})
	}
}

// TestWireTransportHealthzDrain: a draining worker reports unhealthy
// through Ping/Pong, like /healthz answering 503.
func TestWireTransportHealthzDrain(t *testing.T) {
	s, addr := newWireWorker(t, snoopd.Config{})
	wt := newWireTransport(t, addr, "")
	if err := wt.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz on healthy worker: %v", err)
	}
	s.BeginDrain()
	if err := wt.Healthz(context.Background()); err == nil {
		t.Fatal("Healthz on draining worker reported healthy")
	}
}
