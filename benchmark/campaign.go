package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"snoopmva"
)

// campaignWorkers is RunCampaign's worker count in the sweep and detailed
// workloads: one per core of the 2-core machines the benchmark targets.
// The traced run's probes run on as many goroutines.
const campaignWorkers = 2

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// campaignLoad describes a closed-loop campaign workload: ops are rows,
// each solved by one RunCampaign, and a pass is the full grid of rows.
type campaignLoad struct {
	name string
	// pass returns pass p's rows.
	pass func(p int) []row
	// warm is the set-up work done before the first timed op.
	warm func(ctx context.Context) error
	// check verifies row i of pass p, untimed; it records failures in rep.
	check func(ctx context.Context, p, i int, r row, res snoopmva.CampaignResult, rep *report) error
	// probe, in traced runs, times the layers below RunCampaign on the
	// row's points.
	probe func(ctx context.Context, r row, lm *layerSamples) (probeTimes, error)
	// finish adds workload-specific lines after the run.
	finish func(out io.Writer, rep *report)
}

// probeTimes are when a row's probes ran: SolveBest on the row's points,
// then the models below it, whose time is split among Layers by Shares.
type probeTimes struct {
	Best, Models opTime
	Layers       []string
	Shares       []float64
}

// tracedOp is a traced row: the traced RunCampaign and its probes.
type tracedOp struct {
	op    opTime
	probe probeTimes
}

// layerSamples collects the per-call samples behind the per-layer metrics.
type layerSamples struct {
	mvaUs      []float64
	iterations []float64
	attempts   []float64
	degraded   int
	points     int
	states     float64
	gtpnSec    float64
	simCycles  float64
	simSec     float64
}

func (s *layerSamples) addResults(res snoopmva.CampaignResult) {
	for _, pr := range res.Results {
		s.points++
		s.attempts = append(s.attempts, float64(pr.Attempts))
		if pr.Degraded {
			s.degraded++
		}
	}
}

// fill sets the per-layer metrics these samples determine.
func (s *layerSamples) fill(rep *report) {
	if len(s.mvaUs) > 0 {
		mva := summarize(s.mvaUs)
		rep.Metrics["mva.solve_us_p50"] = mva.Median
		rep.Metrics["mva.solve_us_tail"] = mva.Tail
		rep.Metrics["mva.iterations_per_solve"] = mean(s.iterations)
	}
	rep.Metrics["campaign.attempts_per_point"] = mean(s.attempts)
	if s.points > 0 {
		rep.Metrics["solvebest.degraded_ratio"] = float64(s.degraded) / float64(s.points)
	}
	if s.gtpnSec > 0 {
		rep.Metrics["gtpnmodel.states_per_s"] = s.states / s.gtpnSec
	}
	if s.simSec > 0 {
		rep.Metrics["cachesim.cycles_per_s"] = s.simCycles / s.simSec
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timeSetup runs setup setupRepeats times and returns the median time,
// in seconds and without steal.
func timeSetup(ctx context.Context, setup func(ctx context.Context) error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		steal := startSteal()
		t0 := time.Now()
		err := setup(ctx)
		t1 := time.Now()
		steal.stop()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, steal.dedicated(t0, t1).Seconds())
	}
	return quantile(secs, 0.5), nil
}

// keepGoing is the whole-pass stopping rule of the closed-loop workloads:
// start another pass while finishing it is expected to land nearer the
// time budget than stopping now. Whole passes keep the mix of rows, and
// so the work per point, the same in every run.
func keepGoing(elapsed, passTime, budget time.Duration) bool {
	return elapsed+passTime/2 < budget
}

// runCampaignLoad runs a campaign workload: repeated set-up, then whole
// passes of rows until the time budget is spent. Untraced, every row is
// one timed op. Traced, every row runs twice — once untraced, as the
// reference for the tracing overhead and the decomposition check, and
// once traced, followed by its probes. The traced spans are built after
// the run, without steal like the end-to-end metrics: an op and its
// probes, or the two runs of a row, run a second apart, and on a busy
// host their raw times can differ by a fifth for that alone.
func runCampaignLoad(ctx context.Context, cfg runConfig, l campaignLoad, out io.Writer) (*report, error) {
	rep := newReport()
	setup, err := timeSetup(ctx, l.warm)
	if err != nil {
		return nil, err
	}
	rep.Metrics["setup_s"] = setup

	var (
		ops       []opTime // untraced
		traced    []tracedOp
		points    int
		samples   layerSamples
		probed    []config // traced points, for the cache probe
		lastPass  time.Duration
		budget    = time.Duration(cfg.Seconds * float64(time.Second))
		startWall = time.Now()
		steal     = startSteal()
	)
passes:
	for p := 0; p == 0 || keepGoing(time.Since(startWall), lastPass, budget); p++ {
		passStart := time.Now()
		for i, r := range l.pass(p) {
			spec := snoopmva.CampaignSpec{Points: r.Points, Workers: campaignWorkers}
			t0 := time.Now()
			res, err := snoopmva.RunCampaign(ctx, spec)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("RunCampaign: %w", err)
			}
			ops = append(ops, opTime{t0, d})
			points += len(r.Points)
			rep.Attempted += len(r.Points)
			rep.Failed += res.Failed
			if err := l.check(ctx, p, i, r, res, rep); err != nil {
				return nil, err
			}
			if !cfg.Trace {
				continue
			}
			t0 = time.Now()
			res, err = snoopmva.RunCampaign(ctx, spec)
			d = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("RunCampaign (traced): %w", err)
			}
			samples.addResults(res)
			pt, err := l.probe(ctx, r, &samples)
			if err != nil {
				return nil, err
			}
			traced = append(traced, tracedOp{opTime{t0, d}, pt})
			for _, pt := range r.Points {
				if len(probed) < probeLimit {
					probed = append(probed, configOf(pt))
				}
			}
			// The traced run reports no end-to-end metric, so it may stop
			// mid-pass: its probes make a detailed pass several times longer.
			if time.Since(startWall) >= budget {
				break passes
			}
		}
		lastPass = time.Since(passStart)
	}
	steal.stop()
	if len(ops) == 0 {
		return nil, errNoOps
	}
	raw, rawBusy := dedicatedOps(nil, ops)
	lat, busy := dedicatedOps(steal, ops)
	t, r := summarize(lat), summarize(raw)
	rep.Metrics["points_per_s"] = float64(points) / busy.Seconds()
	rep.Metrics["lat_p50_ms"] = t.Median
	rep.Metrics["peak_rss_mb"] = peakRSSMB(0)
	fmt.Fprintf(out, "# %s: %d ops, %d points; without steal: %.0f points/s, latency p50 %.3f ms, p%g %.3f ms\n",
		l.name, t.N, points, float64(points)/busy.Seconds(), t.Median, t.TailP, t.Tail)
	fmt.Fprintf(out, "# %s: as measured (steal %.1f%%): %.0f points/s, latency p50 %.3f ms, p%g %.3f ms\n",
		l.name, 100*steal.overall(), float64(points)/rawBusy.Seconds(), r.Median, r.TailP, r.Tail)
	if l.finish != nil {
		l.finish(out, rep)
	}
	if cfg.Trace {
		cp, err := probeCache(probed)
		if err != nil {
			return nil, err
		}
		rep.Metrics["solvecache.hit_us_p50"] = quantile(nsToUs(cp.hitNs), 0.5)
		rec := traceSpans(startWall, steal, traced)
		a := attribute(rec.spans)
		samples.fill(rep)
		rep.setLayerShares(a)
		rep.checkDecomposition(cfg, printAttribution(out, l.name, a, float64(busy)/float64(len(ops))))
		if err := dumpSpans(cfg, rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceSpans builds the spans of the traced rows, without steal: each
// row's RunCampaign is a root span starting when it started and lasting
// as long as it would have without steal, with its SolveBest probe
// beneath it and the model probes beneath that, measured alike.
func traceSpans(epoch time.Time, steal *stealSampler, traced []tracedOp) *recorder {
	rec := &recorder{epoch: epoch}
	ded := func(o opTime) float64 { return float64(steal.dedicated(o.start, o.start.Add(o.d))) }
	for op, t := range traced {
		start := rec.at(t.op.start)
		root := rec.begin(layerCampaign, op, -1, start)
		rec.end(root, start+int64(ded(t.op)))
		sb := rec.placeSeq(op, root, []string{layerSolveBest}, []float64{ded(t.probe.Best)})[0]
		models := make([]float64, len(t.probe.Shares))
		for i, s := range t.probe.Shares {
			models[i] = s * ded(t.probe.Models)
		}
		rec.placeSeq(op, sb, t.probe.Layers, models)
	}
	return rec
}

// onWorkers calls f(i) for every i in [0, n) on campaignWorkers
// goroutines that take the indices in order, as RunCampaign's workers
// take a row's points, and returns when the calls ran and each call's
// duration. A probe timed this way meets host stalls and uneven points as
// the op it stands for does: a stall stops one of two workers, where it
// would stop a serial loop outright.
func onWorkers(n int, f func(i int) error) (opTime, []time.Duration, error) {
	each := make([]time.Duration, n)
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < campaignWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				errs[i] = f(i)
				each[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return opTime{start, time.Since(start)}, each, errors.Join(errs...)
}

// bitsEqual reports whether two floats are the same bit pattern.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func dumpSpans(cfg runConfig, rec *recorder) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.json", cfg.Work, cfg.Workload, cfg.Seed)
	return writeSpans(path, rec.spans)
}
