// Command campaign runs a crash-safe design-space sweep: a grid of
// (protocol, sharing level, system size) points driven through the
// SolveBest degradation ladder with bounded parallelism, a per-stage
// circuit breaker, and a journaled checkpoint/resume protocol (DESIGN.md
// §10). Kill it at any instant and run it again with -resume:
// completed points are read back from the journal and only the rest are
// recomputed, deterministically.
//
// Examples:
//
//	campaign -protocols Illinois,Dragon -sharing 5 -ns 1..16 -journal run.jsonl
//	campaign -protocols all -sharing 1,5,20 -ns 1,2,4,8,16,32 \
//	    -max-states -1 -sim-cycles 200000 -journal sweep.jsonl -workers 8
//	campaign -journal sweep.jsonl -resume   # after a crash, with the same grid flags
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"snoopmva"
	"snoopmva/internal/gridspec"
	"snoopmva/internal/tables"
)

func main() {
	var (
		protoNames = flag.String("protocols", "all", "comma-separated protocol names, or \"all\" for every named preset")
		sharings   = flag.String("sharing", "5", "comma-separated Appendix A sharing levels (1, 5, 20)")
		ns         = flag.String("ns", "1..16", "system sizes: comma-separated values and lo..hi ranges")
		maxStates  = flag.Int("max-states", -1, "GTPN state budget per point (0 = engine default, negative = skip the GTPN stage)")
		simCycles  = flag.Int64("sim-cycles", -1, "cap on the simulator measurement cycles per point; a run stops earlier once its speedup is known to ±1% (0 = default 300000, negative = skip the simulator stage)")
		seed       = flag.Uint64("seed", 1, "simulator seed (per point)")
		journal    = flag.String("journal", "", "journal path for checkpoint/resume (empty = no durability)")
		resume     = flag.Bool("resume", false, "continue a previous run from -journal, skipping completed points")
		workers    = flag.Int("workers", 0, "solver parallelism (0 = GOMAXPROCS)")
		breaker    = flag.Int("breaker", 5, "circuit-breaker threshold: consecutive stage failures before the stage is skipped (negative disables)")
		probe      = flag.Int("breaker-probe", 0, "let one probe through per this many skipped points (0 = never)")
		pointTO    = flag.Duration("point-timeout", 0, "deadline per point (e.g. 30s; 0 = none)")
		cacheCap   = flag.Int("cache", 0, "memoize solves through a CachedSolver bounded to this many results (0 disables, negative = default bound)")
		timeout    = flag.Duration("timeout", 0, "abort the whole campaign after this long (0 = no limit)")
		format     = flag.String("format", "text", "output format: text, csv, markdown")
		quiet      = flag.Bool("quiet", false, "print only the summary line, not the per-point table")
	)
	flag.Parse()
	write, err := tables.WriterFor(*format)
	if err != nil {
		fatal(err)
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must not be negative (got %v)", *timeout))
	}
	if *pointTO < 0 {
		fatal(fmt.Errorf("-point-timeout must not be negative (got %v)", *pointTO))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	points, err := gridspec.BuildGrid(*protoNames, *sharings, *ns, snoopmva.Budget{
		MaxStates: *maxStates,
		SimCycles: *simCycles,
		Seed:      *seed,
	})
	if err != nil {
		fatal(err)
	}
	spec := snoopmva.CampaignSpec{
		Points:           points,
		Journal:          *journal,
		Resume:           *resume,
		Workers:          *workers,
		BreakerThreshold: *breaker,
		BreakerProbe:     *probe,
		PointTimeout:     *pointTO,
	}
	var cache *snoopmva.CachedSolver
	if *cacheCap != 0 {
		bound := *cacheCap
		if bound < 0 {
			bound = 0 // NewCachedSolver's default bound
		}
		cache = snoopmva.NewCachedSolver(bound)
		spec.Cache = cache
	}

	start := time.Now()
	res, err := snoopmva.RunCampaign(ctx, spec)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		tb := tables.New(fmt.Sprintf("campaign — %d points", len(res.Results)),
			"idx", "protocol", "N", "method", "speedup", "U_bus", "status")
		for i, pr := range res.Results {
			status := "ok"
			switch {
			case pr.Err != "":
				status = "FAILED"
			case pr.Resumed:
				status = "resumed"
			case len(pr.SkippedStages) > 0:
				status = "skip:" + strings.Join(pr.SkippedStages, "+")
			case pr.Degraded:
				status = "degraded"
			}
			tb.AddRow(i, points[i].Protocol.String(), points[i].N,
				string(pr.Method), pr.Speedup, pr.BusUtilization, status)
		}
		if err := write(tb, os.Stdout); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("campaign: %d points (%d computed, %d resumed, %d failed) in %v",
		len(res.Results), res.Computed, res.Resumed, res.Failed, time.Since(start).Round(time.Millisecond))
	if len(res.OpenStages) > 0 {
		fmt.Printf("; circuit open: %s", strings.Join(res.OpenStages, ", "))
	}
	if cache != nil {
		cs := cache.Stats()
		fmt.Printf("; cache: %d hits, %d misses, %d coalesced (%.0f%% hit rate)",
			cs.Hits, cs.Misses, cs.Coalesced, 100*cs.HitRate())
	}
	fmt.Println()
	if res.Failed > 0 {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	os.Exit(1)
}
