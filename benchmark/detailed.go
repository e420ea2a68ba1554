package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"snoopmva"
)

// Accuracy bounds of the detailed workload's checks: how far MVA's speedup
// may sit from the exact GTPN solution and from the simulator. DESIGN.md
// §7 states 6% against the GTPN through N = 6 at the Appendix A inputs;
// the ±10% perturbations move the write-back protocols up to 6.4%, so the
// check allows 8%. The write-through preset is outside that envelope even
// unperturbed (11.0% at N = 6, up to 13.9% perturbed), a known divergence
// the check bounds at 18%. The simulator band is TestThreeModelTriangle's
// 15% (up to 11.0% measured at N = 6). Maxima are over seeds 1..30.
const (
	gtpnTolerance             = 0.08
	gtpnWriteThroughTolerance = 0.18
	simTolerance              = 0.15
)

// runDetailed is the paper's accuracy check: the default SolveBest ladder
// through RunCampaign, uncached, on points where the exact GTPN model is
// tractable (N = 2..6) and on points the simulator answers (N = 4, 6,
// the sizes where its agreement with MVA is checked). gtpnmodel and
// cachesim dominate; mva costs almost nothing.
func runDetailed(ctx context.Context, cfg runConfig, out io.Writer) (*report, error) {
	gtpnNs, simNs, simCycles := []int{2, 3, 4, 5, 6}, []int{4, 6}, int64(0)
	if cfg.Small {
		gtpnNs, simNs, simCycles = []int{2}, []int{4}, 50000
	}
	errs := map[bool][]float64{} // |MVA − GTPN| / GTPN in percent, by write-through or not
	warms := 0
	return runCampaignLoad(ctx, cfg, campaignLoad{
		name: "detailed",
		pass: func(p int) []row { return detailedPass(cfg.Seed, p, gtpnNs, simNs, simCycles) },
		warm: func(ctx context.Context) error {
			warms++
			r := detailedPass(cfg.Seed, warmPass+warms, gtpnNs[:1], simNs[:1], simCycles)[0]
			_, err := snoopmva.RunCampaign(ctx, snoopmva.CampaignSpec{Points: r.Points, Workers: campaignWorkers})
			return err
		},
		check: func(ctx context.Context, p, i int, r row, res snoopmva.CampaignResult, rep *report) error {
			for j, pt := range r.Points {
				pr := res.Results[j]
				want, tol := snoopmva.MethodGTPN, gtpnTolerance
				if pt.Protocol.Name() == snoopmva.WriteThrough().Name() {
					tol = gtpnWriteThroughTolerance
				}
				if j >= len(gtpnNs) {
					want, tol = snoopmva.MethodSimulation, simTolerance
				}
				if pr.Err != "" || pr.Method != want || pr.Degraded {
					rep.fail("detailed pass %d row %d N=%d: method %q degraded=%v err=%q, want %s", p, i, pt.N, pr.Method, pr.Degraded, pr.Err, want)
					continue
				}
				m, err := snoopmva.Solve(pt.Protocol, pt.Workload, pt.N)
				if err != nil {
					rep.fail("detailed pass %d row %d N=%d: Solve: %v", p, i, pt.N, err)
					continue
				}
				ref := cfg.expect(pr.Speedup)
				rel := math.Abs(m.Speedup-ref) / ref
				if want == snoopmva.MethodGTPN {
					wt := tol == gtpnWriteThroughTolerance
					errs[wt] = append(errs[wt], 100*rel)
				}
				if rel > tol {
					rep.fail("detailed pass %d row %d %v N=%d: MVA speedup %.4f vs %s %.4f (%.1f%% > %.0f%%)",
						p, i, pt.Protocol, pt.N, m.Speedup, want, pr.Speedup, 100*rel, 100*tol)
				}
			}
			return nil
		},
		probe: func(ctx context.Context, r row, lm *layerSamples) (probeTimes, error) {
			pts := r.Points
			best, _, err := onWorkers(len(pts), func(i int) error {
				_, err := snoopmva.SolveBest(ctx, pts[i].Protocol, pts[i].Workload, pts[i].N, pts[i].Budget)
				return err
			})
			if err != nil {
				return probeTimes{}, fmt.Errorf("probe SolveBest: %w", err)
			}
			states := make([]int, len(pts))
			models, each, err := onWorkers(len(pts), func(i int) error {
				pt := pts[i]
				if i < len(gtpnNs) {
					d, err := snoopmva.SolveDetailedContext(ctx, pt.Protocol, pt.Workload, pt.N)
					states[i] = d.States
					return err
				}
				_, err := snoopmva.SimulateContext(ctx, pt.Protocol, pt.Workload, pt.N, simOptions(pt))
				return err
			})
			if err != nil {
				return probeTimes{}, fmt.Errorf("probe detailed models: %w", err)
			}
			var gtpn, sim float64
			for i, d := range each {
				if i < len(gtpnNs) {
					gtpn += float64(d)
					lm.states += float64(states[i])
					lm.gtpnSec += d.Seconds()
				} else {
					sim += float64(d)
					lm.simCycles += float64(simWindow(simOptions(pts[i])))
					lm.simSec += d.Seconds()
				}
			}
			for _, pt := range pts {
				t0 := time.Now()
				m, err := snoopmva.Solve(pt.Protocol, pt.Workload, pt.N)
				if err != nil {
					return probeTimes{}, fmt.Errorf("probe Solve: %w", err)
				}
				lm.mvaUs = append(lm.mvaUs, float64(time.Since(t0))/1e3)
				lm.iterations = append(lm.iterations, float64(m.Iterations))
			}
			// The models ran two at a time: each layer gets the share of
			// the wall time its calls took.
			return probeTimes{Best: best, Models: models, Layers: []string{layerGTPN, layerCacheSim},
				Shares: []float64{gtpn / (gtpn + sim), sim / (gtpn + sim)}}, nil
		},
		finish: func(out io.Writer, rep *report) {
			for _, wt := range []bool{false, true} {
				if len(errs[wt]) == 0 {
					continue
				}
				name := "write-back protocols"
				if wt {
					name = "write-through"
				}
				fmt.Fprintf(out, "# detailed: MVA vs GTPN speedup error, %s, %d points: max %.3f%%, mean %.3f%%\n",
					name, len(errs[wt]), slices.Max(errs[wt]), mean(errs[wt]))
			}
		},
	}, out)
}

// simOptions are the simulator options SolveBest uses for pt.
func simOptions(pt snoopmva.CampaignPoint) snoopmva.SimOptions {
	return snoopmva.SimOptions{Seed: pt.Budget.Seed, MeasureCycles: pt.Budget.SimCycles}
}

// simWindow is the number of cycles a simulation with opts runs: the
// warm-up plus the measurement window, with the simulator's defaults
// (30000 and 300000) for zero values.
func simWindow(opts snoopmva.SimOptions) int64 {
	warm, measure := opts.WarmupCycles, opts.MeasureCycles
	if warm == 0 {
		warm = 30000
	}
	if warm < 0 {
		warm = 0
	}
	if measure == 0 {
		measure = 300000
	}
	return warm + measure
}
