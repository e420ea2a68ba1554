// Command snoopbench is the serving-layer load client: it drives a
// snoopd through three phases — single-request JSON, single-request
// binary, and batched binary — at high connection counts and writes a
// machine-readable JSON report:
//
//	go run ./cmd/snoopbench                # self-hosted snoopd, 1000 conns × 50 requests
//	go run ./cmd/snoopbench -quick         # CI-sized run (64 conns × 50 requests)
//	go run ./cmd/snoopbench -out r.json    # report to a file instead of stdout
//	go run ./cmd/snoopbench \
//	    -addr localhost:9090 -http http://localhost:8080   # external snoopd
//
// Every phase opens -conns concurrent connections and issues -rate
// requests per connection, so the numbers differ only by transport:
//
//   - json_single: one JSON POST /v1/solve per request over a kept-alive
//     HTTP connection — the baseline request-response cost
//   - wire_single: the binary protocol with a window of one — framing
//     savings alone, no pipelining
//   - batch_binary: the binary protocol with -batch requests in flight
//     per connection — the batched mode DESIGN.md §16 motivates
//
// With no -addr, snoopbench hosts a snoopd in-process on loopback (a
// shared solve cache, no admission control), so after warm-up every
// solve is a memoized hit and the phases measure serving overhead —
// parsing, dispatch, encoding, syscalls — not solver arithmetic. That is
// deliberate: batch_speedup_vs_json is a claim about the transport, and
// it must hold even when the solve itself is free; CI requires it to be
// at least 5 on a -quick run. -addr/-http point snoopbench at an
// already-running server instead — its binary listener and JSON base
// URL, which must name the same process for the ratio to mean anything.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"snoopmva"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
	"snoopmva/internal/stats"
	"snoopmva/internal/wire"
)

// series is one phase's throughput and latency distribution.
type series struct {
	Requests       int     `json:"requests"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	P50Ns          float64 `json:"p50_ns"`
	P95Ns          float64 `json:"p95_ns"`
	P99Ns          float64 `json:"p99_ns"`
}

// report is one full serving-layer run.
type report struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`

	Connections     int `json:"connections"`
	RequestsPerConn int `json:"requests_per_conn"`
	Batch           int `json:"batch"`

	JSONSingle  series `json:"json_single"`
	WireSingle  series `json:"wire_single"`
	BatchBinary series `json:"batch_binary"`

	// BatchSpeedup is BatchBinary throughput over JSONSingle throughput.
	BatchSpeedup float64 `json:"batch_speedup_vs_json"`
}

func main() {
	conns := flag.Int("conns", 0, "concurrent connections per phase (0 = 1000, or 64 with -quick)")
	rate := flag.Int("rate", 50, "requests per connection per phase")
	batch := flag.Int("batch", 16, "in-flight window of the batch-binary phase (1.."+fmt.Sprint(wire.MaxBatchPoints)+")")
	addr := flag.String("addr", "", "wire host:port of an already-running snoopd (empty self-hosts one)")
	httpBase := flag.String("http", "", "JSON base URL of the same snoopd (required with -addr)")
	quick := flag.Bool("quick", false, "CI-sized run: 64 connections instead of 1000 unless -conns is set")
	out := flag.String("out", "-", "output path, or - for stdout")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *conns < 0 {
		fatalUsage(fmt.Errorf("-conns must be >= 0, got %d", *conns))
	}
	if *rate < 1 {
		fatalUsage(fmt.Errorf("-rate must be >= 1, got %d", *rate))
	}
	if *batch < 1 || *batch > wire.MaxBatchPoints {
		fatalUsage(fmt.Errorf("-batch must be in 1..%d, got %d", wire.MaxBatchPoints, *batch))
	}
	if *addr != "" {
		if _, _, err := net.SplitHostPort(*addr); err != nil {
			fatalUsage(fmt.Errorf("-addr: %v", err))
		}
		if *httpBase == "" {
			fatalUsage(fmt.Errorf("-addr needs -http: the same snoopd's JSON base URL"))
		}
	} else if *httpBase != "" {
		fatalUsage(fmt.Errorf("-http needs -addr: both name the same snoopd, or neither for a self-hosted run"))
	}
	if *conns == 0 {
		*conns = 1000
		if *quick {
			*conns = 64
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := &report{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Quick:           *quick,
		Connections:     *conns,
		RequestsPerConn: *rate,
		Batch:           *batch,
	}
	if err := rep.run(*httpBase, *addr); err != nil {
		fatal(err)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	line := func(name string, s series) {
		fmt.Fprintf(os.Stderr, "%-12s %8.0f req/s  p50 %.0fµs  p95 %.0fµs  p99 %.0fµs\n",
			name, s.RequestsPerSec, s.P50Ns/1e3, s.P95Ns/1e3, s.P99Ns/1e3)
	}
	fmt.Fprintf(os.Stderr, "snoopbench: %d connections × %d requests, batch window %d\n",
		rep.Connections, rep.RequestsPerConn, rep.Batch)
	line("json_single", rep.JSONSingle)
	line("wire_single", rep.WireSingle)
	line("batch_binary", rep.BatchBinary)
	fmt.Fprintf(os.Stderr, "batch binary vs single JSON: %.1fx\n", rep.BatchSpeedup)
}

// run executes the three serving phases against the snoopd at base and
// wireAddr (both empty self-hosts one) and fills in rep's series.
func (rep *report) run(base, wireAddr string) error {
	if base == "" {
		host, err := startHost()
		if err != nil {
			return err
		}
		defer host.close()
		base, wireAddr = host.base, host.wireAddr
	}

	// The request mix cycles over a few system sizes; warming each once
	// over HTTP populates the shared cache for both transports (the
	// request cores build identical cache keys, which the equivalence
	// suite pins).
	ns := []int{4, 8, 12, 16}
	bodies := make([][]byte, len(ns))
	for i, n := range ns {
		body, err := json.Marshal(solveReq(n))
		if err != nil {
			return err
		}
		bodies[i] = body
	}
	warm := &http.Client{Timeout: 30 * time.Second}
	for _, body := range bodies {
		resp, err := warm.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up: %s", resp.Status)
		}
	}

	var err error
	if rep.JSONSingle, err = rep.jsonSingle(base, bodies); err != nil {
		return err
	}
	if rep.WireSingle, err = rep.wirePhase(wireAddr, ns, 1); err != nil {
		return err
	}
	if rep.BatchBinary, err = rep.wirePhase(wireAddr, ns, rep.Batch); err != nil {
		return err
	}
	if rep.JSONSingle.RequestsPerSec > 0 {
		rep.BatchSpeedup = rep.BatchBinary.RequestsPerSec / rep.JSONSingle.RequestsPerSec
	}
	return nil
}

// solveReq is the request every phase sends, over JSON and binary
// alike: Illinois at Appendix A sharing level 5 on n processors.
func solveReq(n int) *wire.SolveRequest {
	level := 5
	return &wire.SolveRequest{
		Protocol: wire.ProtocolSpec{Name: "Illinois"},
		Workload: wire.WorkloadSpec{AppendixA: &level},
		N:        n,
	}
}

// jsonSingle is the baseline phase: sequential JSON POSTs, one
// kept-alive HTTP connection per worker (its own Transport, so
// connections are never shared across workers).
func (rep *report) jsonSingle(base string, bodies [][]byte) (series, error) {
	return runPhase(rep.Connections, rep.RequestsPerConn, func(conn int, lat []float64) error {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
		for i := range lat {
			body := bodies[(conn+i)%len(bodies)]
			start := time.Now()
			resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			lat[i] = float64(time.Since(start).Nanoseconds())
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /v1/solve: %s", resp.Status)
			}
		}
		return nil
	})
}

// wirePhase drives the binary protocol with the given in-flight window:
// 1 is the wire_single phase (sequential round trips; latency is per
// call), rep.Batch the batch_binary phase (SolveBatch with window points
// per call; every point in a batch is charged the batch's wall time, the
// honest per-request latency of a batched transport).
func (rep *report) wirePhase(addr string, ns []int, window int) (series, error) {
	return runPhase(rep.Connections, rep.RequestsPerConn, func(conn int, lat []float64) error {
		c := wire.NewClient(addr, wire.ClientOptions{ClientName: "snoopbench"})
		defer func() { _ = c.Close() }()
		req := func(i int) *wire.SolveRequest { return solveReq(ns[(conn+i)%len(ns)]) }
		if window <= 1 {
			for i := range lat {
				start := time.Now()
				_, err := c.Solve(context.Background(), req(i))
				lat[i] = float64(time.Since(start).Nanoseconds())
				if err != nil {
					return err
				}
			}
			return nil
		}
		for base := 0; base < len(lat); base += window {
			end := min(base+window, len(lat))
			reqs := make([]*wire.SolveRequest, 0, end-base)
			for i := base; i < end; i++ {
				reqs = append(reqs, req(i))
			}
			start := time.Now()
			results, err := c.SolveBatch(context.Background(), reqs)
			el := float64(time.Since(start).Nanoseconds())
			if err != nil {
				return err
			}
			for i := base; i < end; i++ {
				lat[i] = el
			}
			for _, r := range results {
				if r.Err != nil {
					return r.Err
				}
			}
		}
		return nil
	})
}

// runPhase fans conns workers out behind a start barrier (so wall-clock
// excludes goroutine spawn), waits for all of them, and folds the
// per-call latencies into one series. Connection setup happens inside
// the worker for every phase, so each transport pays its own setup cost
// symmetrically.
func runPhase(conns, perConn int, worker func(conn int, lat []float64) error) (series, error) {
	lats := make([][]float64, conns)
	errs := make([]error, conns)
	start := make(chan struct{})
	var done sync.WaitGroup
	for c := 0; c < conns; c++ {
		lats[c] = make([]float64, perConn)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			<-start
			errs[c] = worker(c, lats[c])
		}(c)
	}
	t0 := time.Now()
	close(start)
	done.Wait()
	wall := time.Since(t0)
	for c, err := range errs {
		if err != nil {
			return series{}, fmt.Errorf("conn %d: %w", c, err)
		}
	}
	all := make([]float64, 0, conns*perConn)
	for _, l := range lats {
		all = append(all, l...)
	}
	var q [3]float64
	for i, p := range []float64{0.50, 0.95, 0.99} {
		v, err := stats.Quantile(all, p)
		if err != nil {
			return series{}, err
		}
		q[i] = v
	}
	total := conns * perConn
	return series{
		Requests:       total,
		RequestsPerSec: float64(total) / wall.Seconds(),
		P50Ns:          q[0],
		P95Ns:          q[1],
		P99Ns:          q[2],
	}, nil
}

// host is the self-hosted server of a local run: one snoopd with its own
// metrics registry and a shared cache, serving JSON and the binary
// listener on loopback.
type host struct {
	base     string
	wireAddr string
	cancel   context.CancelFunc
	httpSrv  *http.Server
	wireDone chan error
	httpDone chan error
}

func startHost() (*host, error) {
	handler := snoopd.New(snoopd.Config{
		Registry: obs.NewRegistry(),
		Cache:    snoopmva.NewCachedSolver(0),
	})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = httpLn.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &host{
		base:     "http://" + httpLn.Addr().String(),
		wireAddr: wireLn.Addr().String(),
		cancel:   cancel,
		httpSrv:  &http.Server{Handler: handler},
		wireDone: make(chan error, 1),
		httpDone: make(chan error, 1),
	}
	go func() { h.wireDone <- handler.ServeWire(ctx, wireLn) }()
	go func() { h.httpDone <- h.httpSrv.Serve(httpLn) }()
	return h, nil
}

func (h *host) close() {
	h.cancel()
	_ = h.httpSrv.Close()
	<-h.wireDone
	<-h.httpDone
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snoopbench:", err)
	os.Exit(1)
}

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "snoopbench:", err)
	os.Exit(2)
}
