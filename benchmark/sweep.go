package main

import (
	"context"
	"fmt"
	"io"

	"snoopmva"
)

// warmPass is the first pass index used for set-up work, far above any
// measured pass, so warm-up inputs never repeat measured ones.
const warmPass = 1 << 20

// sweepChecked is how many points of each sweep pass are compared with a
// direct Solve.
const sweepChecked = 64

// runSweep is the paper's interactive design-space use: speedup curves
// over N = 1..64 for every protocol at every sharing level and under
// stress, MVA only, each pass one RunCampaign with two workers. mva and
// campaign do almost all the work; the cache, the detailed models and
// serving are bypassed. An op is a whole pass, not a curve: a curve takes
// a few milliseconds, shorter than the stalls a busy host inflicts, and
// the steal correction, an average over 500 ms, misjudges single ones.
func runSweep(ctx context.Context, cfg runConfig, out io.Writer) (*report, error) {
	maxN := 64
	if cfg.Small {
		maxN = 4
	}
	warms := 0
	return runCampaignLoad(ctx, cfg, campaignLoad{
		name: "sweep",
		pass: func(p int) []row { return sweepPass(cfg.Seed, p, maxN) },
		warm: func(ctx context.Context) error {
			warms++
			for _, r := range sweepPass(cfg.Seed, warmPass+warms, maxN) {
				if _, err := snoopmva.RunCampaign(ctx, snoopmva.CampaignSpec{Points: r.Points, Workers: campaignWorkers}); err != nil {
					return err
				}
			}
			return nil
		},
		check: func(ctx context.Context, p, i int, r row, res snoopmva.CampaignResult, rep *report) error {
			for _, idx := range samplePoints(cfg.Seed, p, len(r.Points), sweepChecked) {
				pt, pr := r.Points[idx], res.Results[idx]
				want, err := snoopmva.Solve(pt.Protocol, pt.Workload, pt.N)
				if err != nil {
					rep.fail("sweep pass %d point %d: direct Solve: %v", p, idx, err)
					continue
				}
				want.Speedup = cfg.expect(want.Speedup)
				if pr.Method != snoopmva.MethodMVA || pr.N != want.N || !bitsEqual(pr.Speedup, want.Speedup) ||
					!bitsEqual(pr.R, want.R) || !bitsEqual(pr.BusUtilization, want.BusUtilization) {
					rep.fail("sweep pass %d point %d: campaign %+v != direct Solve %+v", p, idx, pr, want)
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
			iterations := make([]int, len(pts))
			mva, each, err := onWorkers(len(pts), func(i int) error {
				m, err := snoopmva.Solve(pts[i].Protocol, pts[i].Workload, pts[i].N)
				iterations[i] = m.Iterations
				return err
			})
			if err != nil {
				return probeTimes{}, fmt.Errorf("probe Solve: %w", err)
			}
			for i, d := range each {
				lm.mvaUs = append(lm.mvaUs, float64(d)/1e3)
				lm.iterations = append(lm.iterations, float64(iterations[i]))
			}
			return probeTimes{Best: best, Models: mva, Layers: []string{layerMVA}, Shares: []float64{1}}, nil
		},
	}, out)
}
