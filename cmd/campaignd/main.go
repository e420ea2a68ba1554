// Command campaignd runs a design-space campaign distributed across a
// pool of snoopd workers: the coordinator of DESIGN.md §13. It shards
// the same grids cmd/campaign runs locally, journals results in the same
// format (the two commands can resume each other's journals), and
// survives worker crashes, partitions, stragglers, and its own death:
// kill it mid-grid and re-run with -resume, and the final result set is
// identical to an uninterrupted run's.
//
// Examples:
//
//	snoopd -addr :8081 & snoopd -addr :8082 &
//	campaignd -workers http://localhost:8081,http://localhost:8082 \
//	    -protocols all -sharing 1,5,20 -ns 1..16 -journal dist.jsonl
//	campaignd -workers http://localhost:8082 -journal dist.jsonl -resume \
//	    -protocols all -sharing 1,5,20 -ns 1..16   # after a crash, same grid
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"snoopmva"
	"snoopmva/internal/dispatch"
	"snoopmva/internal/gridspec"
	"snoopmva/internal/tables"
)

func main() {
	var (
		workers    = flag.String("workers", "", "comma-separated snoopd worker URLs (required): http(s) base URLs, or wire://host:port[?http=base] for the binary protocol with optional JSON fallback")
		protoNames = flag.String("protocols", "all", "comma-separated protocol names, or \"all\" for every named preset")
		sharings   = flag.String("sharing", "5", "comma-separated Appendix A sharing levels (1, 5, 20)")
		ns         = flag.String("ns", "1..16", "system sizes: comma-separated values and lo..hi ranges")
		maxStates  = flag.Int("max-states", -1, "GTPN state budget per point (0 = engine default, negative = skip the GTPN stage)")
		simCycles  = flag.Int64("sim-cycles", -1, "cap on the simulator measurement cycles per point; a run stops earlier once its speedup is known to ±1% (0 = default 300000, negative = skip the simulator stage)")
		seed       = flag.Uint64("seed", 1, "simulator seed (per point)")
		journal    = flag.String("journal", "", "journal path for checkpoint/resume (empty = no durability)")
		resume     = flag.Bool("resume", false, "continue a previous run from -journal, skipping completed points")
		pointTO    = flag.Duration("point-timeout", 2*time.Minute, "deadline per dispatch of one point (0 = none)")
		breaker    = flag.Int("breaker", 0, "per-worker circuit threshold: consecutive transport failures before the worker is skipped (0 = default 5, negative disables)")
		healthIvl  = flag.Duration("health-interval", 0, "/healthz probe period (0 = default 2s, negative disables probing)")
		quarantine = flag.Int("quarantine-after", 0, "consecutive failed probes before a worker is quarantined (0 = default 3)")
		inflight   = flag.Int("max-inflight", 0, "concurrent points per worker (0 = default 1)")
		stallTO    = flag.Duration("stall-timeout", 0, "abort when no progress for this long (0 = default 2m, negative disables)")
		timeout    = flag.Duration("timeout", 0, "abort the whole campaign after this long (0 = no limit)")
		format     = flag.String("format", "text", "output format: text, csv, markdown")
		quiet      = flag.Bool("quiet", false, "print only the summary lines, not the per-point table")
		verbose    = flag.Bool("v", false, "log coordinator events (quarantines, requeues, speculation) to stderr")
	)
	flag.Parse()

	if *workers == "" {
		fatal(fmt.Errorf("-workers is required (comma-separated snoopd base URLs)"))
	}
	if *inflight < 0 {
		fatal(fmt.Errorf("-max-inflight must be >= 0, got %d", *inflight))
	}
	if *quarantine < 0 {
		fatal(fmt.Errorf("-quarantine-after must be >= 0, got %d", *quarantine))
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must not be negative (got %v)", *timeout))
	}
	if *pointTO < 0 {
		fatal(fmt.Errorf("-point-timeout must not be negative (got %v)", *pointTO))
	}
	write, err := tables.WriterFor(*format)
	if err != nil {
		fatal(err)
	}
	var transports []dispatch.Transport
	for _, u := range strings.Split(*workers, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		// wire://host:port selects the binary protocol; an optional
		// ?http=base names the worker's JSON API as the version-mismatch
		// fallback. Plain http(s) URLs use the JSON transport.
		if hostport, ok := strings.CutPrefix(u, "wire://"); ok {
			httpBase := ""
			if hp, q, found := strings.Cut(hostport, "?"); found {
				hostport = hp
				v, perr := url.ParseQuery(q)
				if perr != nil {
					fatal(fmt.Errorf("-workers: %s: %v", u, perr))
				}
				httpBase = v.Get("http")
			}
			if hostport == "" {
				fatal(fmt.Errorf("-workers: %s: wire:// needs host:port", u))
			}
			transports = append(transports, dispatch.NewWireTransport(hostport, httpBase))
			continue
		}
		transports = append(transports, dispatch.NewHTTPTransport(u, nil))
	}

	points, err := gridspec.BuildGrid(*protoNames, *sharings, *ns, snoopmva.Budget{
		MaxStates: *maxStates,
		SimCycles: *simCycles,
		Seed:      *seed,
	})
	if err != nil {
		fatal(err)
	}

	cfg := dispatch.Config{
		Transports:       transports,
		Journal:          *journal,
		Resume:           *resume,
		PointTimeout:     *pointTO,
		HealthInterval:   *healthIvl,
		QuarantineAfter:  *quarantine,
		BreakerThreshold: *breaker,
		MaxInflight:      *inflight,
		StallTimeout:     *stallTO,
	}
	if *verbose {
		cfg.Logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, f+"\n", args...) }
	}
	coord, err := dispatch.New(cfg)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, stats, err := coord.Run(ctx, points)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		tb := tables.New(fmt.Sprintf("campaignd — %d points across %d workers", len(res.Results), len(transports)),
			"idx", "protocol", "N", "method", "speedup", "U_bus", "status")
		for i, pr := range res.Results {
			status := "ok"
			switch {
			case pr.Err != "":
				status = "FAILED"
			case pr.Resumed:
				status = "resumed"
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

	elapsed := time.Since(start)
	rate := float64(res.Computed) / elapsed.Seconds()
	fmt.Printf("campaignd: %d points (%d computed, %d resumed, %d failed) in %v — %.1f points/sec\n",
		len(res.Results), res.Computed, res.Resumed, res.Failed, elapsed.Round(time.Millisecond), rate)
	fmt.Printf("campaignd: %d dispatches (%d redispatched, %d speculative, %d duplicates discarded); %d quarantined, %d readmitted, %d backpressured\n",
		stats.Dispatches, stats.Redispatches, stats.Speculative, stats.Duplicates, stats.Quarantined, stats.Readmitted, stats.Backpressure)
	if len(stats.WorkerCommits) > 0 {
		addrs := make([]string, 0, len(stats.WorkerCommits))
		for a := range stats.WorkerCommits {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		parts := make([]string, len(addrs))
		for i, a := range addrs {
			parts[i] = fmt.Sprintf("%s=%d", a, stats.WorkerCommits[a])
		}
		fmt.Printf("campaignd: commits by worker: %s\n", strings.Join(parts, " "))
	}
	if len(stats.OpenWorkers) > 0 {
		fmt.Printf("campaignd: workers quarantined or circuit-open at exit: %s\n", strings.Join(stats.OpenWorkers, ", "))
	}
	if res.Failed > 0 {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignd:", err)
	os.Exit(1)
}
