package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"snoopmva"
	"snoopmva/internal/snoopd"
	"snoopmva/internal/wire"
)

// Serve workload parameters.
const (
	// serveHot configurations make up the hot set; serveHotShare of the
	// points come from it (Zipf, exponent serveZipf) and are cache hits,
	// the rest are fresh keys: misses, inserts and, later, evictions.
	serveHot      = 512
	serveHotShare = 0.8
	serveZipf     = 1.1
	// serveBatch is the point count of a batch request.
	serveBatch = 16
	// One request in serveCheckEvery is compared bitwise with an
	// in-process Solve.
	serveCheckEvery = 64
)

// mixShare is each kind's share of the requests pickKind draws.
var mixShare = [...]float64{jsonSolve: 0.4, jsonBatch: 0.1, wireSolve: 0.4, wireBatch: 0.1}

// pickKind draws the request mix: 40% JSON solve, 10% JSON batch, 40%
// wire solve, 10% wire batch.
func pickKind(r *rand.Rand) kind {
	k := jsonSolve
	if r.IntN(2) == 1 {
		k = wireSolve
	}
	if r.IntN(5) == 0 {
		k++ // the batch kind of the same connection
	}
	return k
}

// keys draws the inputs of serve requests: hot-set configurations by a
// Zipf law, or fresh ones.
type keys struct {
	r    *rand.Rand
	zipf *rand.Zipf
	hot  []config
	n    int // requests drawn
}

func newKeys(seed, stream uint64, hot []config) *keys {
	r := newRand(seed, stream)
	return &keys{r: r, zipf: rand.NewZipf(r, serveZipf, 1, uint64(len(hot)-1)), hot: hot}
}

// request draws a request of kind k. The first request of every stream
// is among those checked, so even a short phase checks one.
func (g *keys) request(k kind) *request {
	req := &request{Kind: k, Check: g.r.IntN(serveCheckEvery) == 0 || g.n == 0}
	g.n++
	n := 1
	if k == jsonBatch || k == wireBatch {
		n = serveBatch
	}
	for i := 0; i < n; i++ {
		if g.r.Float64() < serveHotShare {
			req.Cfgs = append(req.Cfgs, g.hot[g.zipf.Uint64()])
			req.Hot++
		} else {
			req.Cfgs = append(req.Cfgs, randomConfig(g.r))
		}
	}
	return req
}

// next draws the next request of the mix.
func (g *keys) next() *request { return g.request(pickKind(g.r)) }

// target is a snoopd reached over one HTTP keep-alive connection and one
// wire connection.
type target struct {
	httpBase string
	http     *http.Client
	wire     *wire.Client
}

// send performs one request.
func (t *target) send(ctx context.Context, r *request) {
	r.Sent = time.Now()
	switch r.Kind {
	case jsonSolve:
		var resp snoopd.SolveResponse
		if r.Err = t.postJSON("/v1/solve", solveBody(r.Cfgs[0]), &resp); r.Err == nil {
			r.Results = []snoopmva.Result{fromJSON(resp.Result)}
		}
	case jsonBatch:
		r.Results, r.Err = t.postBatch(r.Cfgs)
	case wireSolve:
		var resp wire.SolveResponse
		if resp, r.Err = t.wire.Solve(ctx, wireSolveReq(r.Cfgs[0])); r.Err == nil {
			r.Results = []snoopmva.Result{fromWire(resp.Result)}
		}
	case wireBatch:
		reqs := make([]*wire.SolveRequest, len(r.Cfgs))
		for i, c := range r.Cfgs {
			reqs[i] = wireSolveReq(c)
		}
		var out []wire.SolveBatchResult
		if out, r.Err = t.wire.SolveBatch(ctx, reqs); r.Err == nil {
			for _, o := range out {
				if o.Err != nil {
					r.Err = o.Err
					break
				}
				r.Results = append(r.Results, fromWire(o.Resp.Result))
			}
		}
	}
	r.Done = time.Now()
}

func solveBody(c config) snoopd.SolveRequest {
	return snoopd.SolveRequest{Protocol: snoopd.SpecForProtocol(c.Protocol), Workload: snoopd.SpecForWorkload(c.Workload), N: c.N}
}

func wireSolveReq(c config) *wire.SolveRequest {
	return &wire.SolveRequest{Protocol: snoopd.WireProtocolSpec(c.Protocol), Workload: snoopd.WireWorkloadSpec(c.Workload), N: c.N}
}

func (t *target) post(path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := t.http.Post(t.httpBase+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (t *target) postJSON(path string, body, into any) error {
	resp, err := t.post(path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

// postBatch sends cfgs as one /v1/batch request and returns the results
// in input order; any per-point error fails the request.
func (t *target) postBatch(cfgs []config) ([]snoopmva.Result, error) {
	req := snoopd.BatchRequest{Items: make([]snoopd.BatchItem, len(cfgs))}
	for i, c := range cfgs {
		body := solveBody(c)
		req.Items[i] = snoopd.BatchItem{Seq: uint64(i), Solve: &body}
	}
	resp, err := t.post("/v1/batch", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make([]snoopmva.Result, len(cfgs))
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec snoopd.BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("batch record: %w", err)
		}
		switch {
		case rec.Error != nil:
			return nil, fmt.Errorf("batch point %d: %s: %s", rec.Seq, rec.Error.Code, rec.Error.Error)
		case rec.Result == nil || rec.Seq >= uint64(len(out)):
			return nil, fmt.Errorf("batch record %d has no result", rec.Seq)
		}
		out[rec.Seq] = fromJSON(*rec.Result)
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if seen != len(cfgs) {
		return nil, fmt.Errorf("batch answered %d of %d points", seen, len(cfgs))
	}
	return out, nil
}

func fromJSON(r snoopd.ResultJSON) snoopmva.Result {
	return snoopmva.Result{N: r.N, Speedup: r.Speedup, ProcessingPower: r.ProcessingPower, R: r.R,
		BusUtilization: r.BusUtilization, BusWait: r.BusWait, MemUtilization: r.MemUtilization,
		MemWait: r.MemWait, Iterations: r.Iterations}
}

func fromWire(r wire.Result) snoopmva.Result {
	return snoopmva.Result{N: r.N, Speedup: r.Speedup, ProcessingPower: r.ProcessingPower, R: r.R,
		BusUtilization: r.BusUtilization, BusWait: r.BusWait, MemUtilization: r.MemUtilization,
		MemWait: r.MemWait, Iterations: r.Iterations}
}

// sameResult reports bitwise equality of every field.
func sameResult(a, b snoopmva.Result) bool {
	return a.N == b.N && a.Iterations == b.Iterations && bitsEqual(a.Speedup, b.Speedup) &&
		bitsEqual(a.ProcessingPower, b.ProcessingPower) && bitsEqual(a.R, b.R) &&
		bitsEqual(a.BusUtilization, b.BusUtilization) && bitsEqual(a.BusWait, b.BusWait) &&
		bitsEqual(a.MemUtilization, b.MemUtilization) && bitsEqual(a.MemWait, b.MemWait)
}

// phaseStats summarizes a phase by request kind.
type phaseStats struct {
	Requests, Failed [len(kindNames)]int
	Points, Answered [len(kindNames)]int // answered: points of the requests that succeeded
	Lat              [len(kindNames)][]float64
}

// add counts a finished request.
func (s *phaseStats) add(r *request) {
	s.Requests[r.Kind]++
	s.Points[r.Kind] += len(r.Cfgs)
	if r.Err != nil {
		s.Failed[r.Kind]++
		return
	}
	s.Answered[r.Kind] += len(r.Cfgs)
	s.Lat[r.Kind] = append(s.Lat[r.Kind], ms(r.latency()))
}

func total(xs [len(kindNames)]int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// mixMedian is the request mix's median latency: each kind's median
// weighted by its share of the mix. The median of all latencies pooled
// would fall between the clusters of single and batch requests and jump
// with small changes in the kinds' counts from run to run.
func (s phaseStats) mixMedian() float64 {
	m := 0.0
	for k, share := range mixShare {
		m += share * quantile(s.Lat[k], 0.5)
	}
	return m
}

// meanLatency is the mean latency of the answered requests, in ms.
func (s phaseStats) meanLatency() float64 {
	var all []float64
	for _, l := range s.Lat {
		all = append(all, l...)
	}
	return mean(all)
}

// print writes the per-kind table: each kind's share of the requests and
// of the points sent, failures, and latency.
func (s phaseStats) print(w io.Writer) {
	reqs, pts := total(s.Requests), total(s.Points)
	fmt.Fprintf(w, "# serve: %d requests, %d points, %d failed\n", reqs, pts, total(s.Failed))
	for k, name := range kindNames {
		t := summarize(s.Lat[k])
		fmt.Fprintf(w, "#   %-10s %5.1f%% of requests (mix %2.0f%%), %5.1f%% of points, %d failed, p50 %.3f ms, p%g %.3f ms (n=%d)\n",
			name, 100*float64(s.Requests[k])/float64(reqs), 100*mixShare[k], 100*float64(s.Points[k])/float64(pts),
			s.Failed[k], t.Median, t.TailP, t.Tail, t.N)
	}
}

// serveSetup starts a snoopd child and readies the two connections: the
// hot set is primed over JSON batches and read back over wire batches, so
// both paths have carried traffic and every hot key is resident.
func serveSetup(ctx context.Context, cfg runConfig, hot []config) (*server, *target, error) {
	srv, err := startSnoopd(ctx, cfg.Snoopd)
	if err != nil {
		return nil, nil, err
	}
	t := &target{httpBase: srv.httpBase, http: srv.http, wire: wire.NewClient(srv.wireAddr, wire.ClientOptions{ClientName: "benchmark"})}
	for i := 0; i < len(hot); i += serveBatch {
		batch := hot[i:min(i+serveBatch, len(hot))]
		for _, k := range []kind{jsonBatch, wireBatch} {
			r := &request{Kind: k, Cfgs: batch}
			t.send(ctx, r)
			if r.Err != nil {
				t.close(srv)
				return nil, nil, fmt.Errorf("prime hot set: %w", r.Err)
			}
		}
	}
	return srv, t, nil
}

func (t *target) close(srv *server) {
	_ = t.wire.Close()
	srv.stop()
}

// serveRun is one run of the serve workload.
type serveRun struct {
	cfg runConfig
	rep *report
	out io.Writer
	srv *server
	tgt *target
	hot []config
}

// phase runs the closed loop for d on the request stream of phase id.
// It keeps the requests to be checked, or all of them with keepAll; the
// rest are only counted, so the benchmark's memory does not grow with the
// number of requests a run gets through.
func (s *serveRun) phase(ctx context.Context, id uint64, d time.Duration, keepAll bool) (st phaseStats, kept []*request, el time.Duration) {
	g := newKeys(s.cfg.Seed, streamServe+id, s.hot)
	el = closedLoop(ctx, g.next, s.tgt.send, func(r *request) {
		st.add(r)
		if keepAll || r.Check {
			kept = append(kept, r)
		}
	}, d)
	return st, kept, el
}

// check compares the sampled answers bitwise with an in-process Solve.
func (s *serveRun) check(kept []*request) {
	for _, r := range kept {
		if !r.Check || r.Err != nil {
			continue
		}
		for i, c := range r.Cfgs {
			want, err := snoopmva.Solve(c.Protocol, c.Workload, c.N)
			want.Speedup = s.cfg.expect(want.Speedup)
			if err != nil {
				s.rep.fail("serve %s: in-process Solve: %v", kindNames[r.Kind], err)
			} else if !sameResult(r.Results[i], want) {
				s.rep.fail("serve %s point %d: served %+v != in-process Solve %+v", kindNames[r.Kind], i, r.Results[i], want)
			}
		}
	}
}

// runServe drives all three serving paths — the single-point HTTP
// endpoints, /v1/batch, and the wire server with single and batch
// requests — against one snoopd, closed loop with one request in flight.
// snoopd, wire, admission and mostly solvecache reads do the work. With
// one request in flight on each connection instead, the median latency
// followed the host's steal twice as closely (README.md).
func runServe(ctx context.Context, cfg runConfig, out io.Writer) (*report, error) {
	s := &serveRun{cfg: cfg, rep: newReport(), out: out, hot: hotSet(cfg.Seed, serveHot)}
	if cfg.Small {
		s.hot = hotSet(cfg.Seed, 32)
	}
	setup, err := timeSetup(ctx, func(ctx context.Context) error {
		if s.srv != nil {
			s.tgt.close(s.srv)
		}
		var err error
		s.srv, s.tgt, err = serveSetup(ctx, cfg, s.hot)
		return err
	})
	if s.srv != nil {
		defer func() { s.tgt.close(s.srv) }()
	}
	if err != nil {
		return nil, err
	}
	s.rep.Metrics["setup_s"] = setup
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		return s.traced(ctx, d)
	}

	steal := startSteal()
	t0 := time.Now()
	st, kept, el := s.phase(ctx, 0, d, false)
	steal.stop()
	s.rep.Metrics["peak_rss_mb"] = peakRSSMB(0) + s.srv.rssMB()
	s.check(kept)
	st.print(out)
	answered := float64(total(st.Answered))
	busy := steal.dedicated(t0, t0.Add(el))
	fmt.Fprintf(out, "# serve: as measured (steal %.1f%%): %.1f points/s; without steal: %.1f points/s\n",
		100*steal.overall(), answered/el.Seconds(), answered/busy.Seconds())
	s.rep.Attempted, s.rep.Failed = total(st.Requests), total(st.Failed)
	s.rep.Metrics["lat_p50_ms"] = st.mixMedian()
	s.rep.Metrics["points_per_s"] = answered / busy.Seconds()
	return s.rep, nil
}

// traced runs the phase once more and splits each request's time among
// the layers. The root span of a request runs from hand-off to answer, in
// the layer of its connection (snoopd for JSON, wire for binary); inside
// it the server's work is placed from /metrics deltas over the phase
// (admission queue wait) and in-process probes on the phase's keys
// (solve-cache hits and misses, MVA solves). The spans are built after
// the phase from the timestamps an untraced phase takes too, so the
// phase itself is the untraced reference and tracing costs it nothing.
func (s *serveRun) traced(ctx context.Context, d time.Duration) (*report, error) {
	metricsURL := s.srv.httpBase + "/metrics"
	before, err := scrape(s.srv.http, metricsURL)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, done, _ := s.phase(ctx, 100, d, true)
	after, err := scrape(s.srv.http, metricsURL)
	if err != nil {
		return nil, err
	}
	s.check(done)
	st.print(s.out)
	s.rep.Attempted, s.rep.Failed = total(st.Requests), total(st.Failed)

	var fresh []config
	for _, r := range done {
		for i := r.Hot; i < len(r.Cfgs) && len(fresh) < probeLimit; i++ {
			fresh = append(fresh, r.Cfgs[i])
		}
	}
	sp, err := probeSolve(fresh)
	if err != nil {
		return nil, err
	}
	cp, err := probeCache(fresh)
	if err != nil {
		return nil, err
	}
	mvaNs, hitNs := mean(sp.mvaNs), mean(cp.hitNs)
	missNs := math.Max(0, mean(cp.missNs)-mvaNs)
	queueNs := serverMetrics(s.rep, before, after).queueNs

	rec := &recorder{epoch: start}
	for op, r := range done {
		if r.Err != nil {
			continue
		}
		layer := layerWire
		if r.Kind.overHTTP() {
			layer = layerSnoopd
		}
		root := rec.begin(layer, op, -1, rec.at(r.Sent))
		rec.end(root, rec.at(r.Done))
		fresh := float64(len(r.Cfgs) - r.Hot)
		rec.placeSeq(op, root, []string{layerAdmission, layerSolveCache, layerMVA}, []float64{
			queueNs * float64(len(r.Cfgs)),
			hitNs*float64(r.Hot) + missNs*fresh,
			mvaNs * fresh,
		})
	}
	att := attribute(rec.spans)
	s.rep.setLayerShares(att)
	mva := summarize(nsToUs(sp.mvaNs))
	s.rep.Metrics["mva.solve_us_p50"] = mva.Median
	s.rep.Metrics["mva.solve_us_tail"] = mva.Tail
	s.rep.Metrics["mva.iterations_per_solve"] = mean(sp.iterations)
	s.rep.Metrics["solvecache.hit_us_p50"] = quantile(nsToUs(cp.hitNs), 0.5)

	serverUs := func(route string) float64 {
		n := delta(before, after, "snoopmva_http_request_seconds_count", "route", route)
		if n == 0 {
			return 0
		}
		return 1e6 * delta(before, after, "snoopmva_http_request_seconds_sum", "route", route) / n
	}
	solveServer := serverUs("POST /v1/solve")
	fmt.Fprintf(s.out, "# serve: snoopd server time per request: solve %.1f us, batch %.1f us; JSON transport (client − server, solve) %.1f us\n",
		solveServer, serverUs("POST /v1/batch"), 1e3*mean(st.Lat[jsonSolve])-solveServer)
	fmt.Fprintf(s.out, "# serve: admission queue wait mean %.1f us per admitted request\n", queueNs/1e3)
	s.rep.checkDecomposition(s.cfg, printAttribution(s.out, "serve", att, 1e6*st.meanLatency()))
	if err := dumpSpans(s.cfg, rec); err != nil {
		return nil, err
	}
	return s.rep, nil
}
