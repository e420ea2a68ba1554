package snoopd

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/wire"
)

// chaosProxy sits between wire clients and the real listener and kills
// every proxied connection after forwarding killAfter response frames
// past the handshake — a deterministic connection partition. A client
// pipelining more calls than killAfter is guaranteed to lose a
// connection mid-batch and must retry the calls that failed with it.
type chaosProxy struct {
	ln        net.Listener
	target    string
	killAfter int
	wg        sync.WaitGroup
}

func startChaosProxy(t *testing.T, target string, killAfter int) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, killAfter: killAfter}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// stop closes the listener and waits for every pipe to unwind.
func (p *chaosProxy) stop() {
	_ = p.ln.Close()
	p.wg.Wait()
}

func (p *chaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.pipe(client)
	}
}

// pipe forwards client→server raw and server→client frame-by-frame,
// counting post-handshake frames; at killAfter it severs both sides
// mid-batch.
func (p *chaosProxy) pipe(client net.Conn) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		_ = client.Close()
		return
	}
	kill := func() {
		_ = client.Close()
		_ = server.Close()
	}
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
		// Re-framing is byte-identical to the original (the golden
		// vectors pin AppendFrame as the only encoding).
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

// stormAttempts bounds each storm call's tries, like the dispatch
// coordinator's requeue limit (8) bounds a point's.
const stormAttempts = 8

// TestWireStorm is the race/leak storm: hundreds of concurrent
// connections (a thousand without -race), every one behind a chaos proxy
// that severs the connection after two responses — so every client loses
// a connection mid-batch, and each failed call retries itself, at most
// stormAttempts times in all — and a quarter of the clients additionally
// killed outright mid-flight. Afterward: the
// surviving clients' grids are set-identical and bit-equal to the
// library's answers (no lost and no double-committed call), and nothing
// — server, proxy, or client — leaks a goroutine.
func TestWireStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeWire(ctx, ln) }()
	proxy := startChaosProxy(t, ln.Addr().String(), 2)

	conns := 1000
	if raceEnabled {
		conns = 96
	}
	ns := []int{2, 3, 5, 8}
	want := make(map[int]snoopmva.Result, len(ns))
	for _, n := range ns {
		res, serr := snoopmva.Solve(snoopmva.Illinois(), snoopmva.AppendixA(snoopmva.Sharing5), n)
		if serr != nil {
			t.Fatal(serr)
		}
		want[n] = res
	}

	type grid struct {
		results map[int]wire.Result
		errs    []error
	}
	grids := make([]grid, conns)
	killed := make([]bool, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := wire.NewClient(proxy.addr(), wire.ClientOptions{ClientName: "storm"})
			defer func() { _ = c.Close() }()
			if i%4 == 0 {
				// A mid-batch hard kill: close the client while its
				// pipelined calls are still in flight.
				killed[i] = true
				timer := time.AfterFunc(time.Duration(i%7)*time.Millisecond, func() { _ = c.Close() })
				defer timer.Stop()
			}
			g := grid{results: map[int]wire.Result{}}
			var mu sync.Mutex
			var calls sync.WaitGroup
			for _, n := range ns {
				calls.Add(1)
				go func(n int) {
					defer calls.Done()
					var resp wire.SolveResponse
					var err error
					for attempt := 1; attempt <= stormAttempts; attempt++ {
						resp, err = c.Solve(context.Background(), &wire.SolveRequest{
							Protocol: wire.ProtocolSpec{Name: "Illinois"},
							Workload: appendixA(5),
							N:        n,
						})
						if err == nil || errors.Is(err, wire.ErrClientClosed) {
							break
						}
					}
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						g.errs = append(g.errs, err)
						return
					}
					if _, dup := g.results[resp.Result.N]; dup {
						t.Errorf("conn %d: n=%d answered twice", i, resp.Result.N)
					}
					g.results[resp.Result.N] = resp.Result
				}(n)
			}
			calls.Wait()
			grids[i] = g
		}(i)
	}
	wg.Wait()

	for i, g := range grids {
		if killed[i] {
			// A killed client may have finished some calls; whatever did
			// come back must still be correct, and every error must be
			// the close, not a hang or corruption.
			for _, err := range g.errs {
				if !errors.Is(err, wire.ErrClientClosed) {
					t.Fatalf("killed conn %d: unexpected error %v", i, err)
				}
			}
		} else if len(g.errs) > 0 {
			t.Fatalf("conn %d: errors %v", i, g.errs)
		} else if len(g.results) != len(ns) {
			t.Fatalf("conn %d: grid has %d of %d points", i, len(g.results), len(ns))
		}
		for n, got := range g.results {
			w := want[n]
			if !f64eq(got.Speedup, w.Speedup) || !f64eq(got.R, w.R) || got.Iterations != w.Iterations {
				t.Fatalf("conn %d n=%d: result diverges from library: %+v vs %+v", i, n, got, w)
			}
		}
	}

	// Explicit teardown, then the leak check: every goroutine the storm
	// created — client read loops, proxy pipes, server connection
	// handlers, both accept loops — must unwind to the pre-storm count.
	proxy.stop()
	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after storm: %d > baseline %d+2\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
