// Command paperrepro regenerates every table and figure from the paper's
// evaluation section and prints paper-vs-measured comparisons as Markdown
// (DESIGN.md §5 is the experiment index). Run without flags, it prints
// the generated region of EXPERIMENTS.md byte for byte; the test suite
// of internal/exp checks that region against the code.
//
// Examples:
//
//	paperrepro                    # run everything at the file's settings
//	paperrepro -exp tab4.1a       # one experiment
//	paperrepro -list              # list experiment IDs
//	paperrepro -gtpn 0 -simcycles 0   # MVA columns only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"snoopmva/internal/exp"
)

func main() {
	var (
		id        = flag.String("exp", "", "run only this experiment ID")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		gtpnMaxN  = flag.Int("gtpn", 6, "run the detailed GTPN comparator up to this N (0 disables)")
		simCycles = flag.Int64("simcycles", 300000, "simulator measurement cycles (0 disables)")
		seed      = flag.Uint64("seed", 1988, "simulator seed")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this long (e.g. 10m; 0 = no limit)")
	)
	flag.Parse()
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must not be negative (got %v)", *timeout))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg := exp.RunConfig{Ctx: ctx, GTPNMaxN: *gtpnMaxN, SimCycles: *simCycles, Seed: *seed}
	if cfg.GTPNMaxN == 0 {
		cfg.GTPNMaxN = -1
	}
	if cfg.SimCycles == 0 {
		cfg.SimCycles = -1
	}

	todo := exp.All()
	if *id != "" {
		e, ok := exp.ByID(*id)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; try -list", *id))
		}
		todo = []exp.Experiment{e}
	}
	if err := exp.Render(os.Stdout, cfg, todo); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperrepro:", err)
	os.Exit(1)
}
