// Command cachesim runs the detailed cycle-level multiprocessor simulator:
// real per-block protocol state machines, FCFS bus, interleaved memory —
// the repository's stand-in for the independent simulation studies the
// paper compares against.
//
// Examples:
//
//	cachesim -protocol Illinois -sharing 5 -n 10
//	cachesim -all -sharing 20 -n 10            # rank all named protocols
//	cachesim -protocol Dragon -n 8 -cycles 1000000 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"snoopmva"
	"snoopmva/internal/cachesim"
	"snoopmva/internal/protocol"
	"snoopmva/internal/tables"
	"snoopmva/internal/workload"
)

func main() {
	var (
		protoName = flag.String("protocol", "Write-Once", "named protocol")
		sharing   = flag.Int("sharing", 5, "Appendix A sharing level: 1, 5 or 20")
		n         = flag.Int("n", 10, "number of processors")
		cycles    = flag.Int64("cycles", 300000, "measurement cycles")
		warmup    = flag.Int64("warmup", 30000, "warmup cycles")
		seed      = flag.Uint64("seed", 1, "random seed")
		all       = flag.Bool("all", false, "simulate every named protocol and rank them")
		compare   = flag.Bool("compare", false, "add an MVA column")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (e.g. 1m; 0 = no limit)")
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

	if *n < 1 || *n > cachesim.MaxN {
		fatal(fmt.Errorf("-n must be in 1..%d, got %d", cachesim.MaxN, *n))
	}
	if *cycles < 1 {
		fatal(fmt.Errorf("-cycles must be >= 1, got %d", *cycles))
	}
	lvl, err := workload.SharingPercent(*sharing)
	if err != nil {
		fatal(err)
	}
	ws := workload.AppendixA(lvl)

	var protos []protocol.Protocol
	if *all {
		protos = protocol.Named()
	} else {
		p, ok := protocol.ByName(*protoName)
		if !ok {
			fatal(fmt.Errorf("unknown protocol %q", *protoName))
		}
		protos = []protocol.Protocol{p}
	}

	cols := []string{"protocol", "speedup", "95% CI", "R", "U_bus", "U_mem",
		"amod_private*", "amod_sw*", "csupply_sro*", "csupply_sw*", "resp p/sro/sw", "p95 p/sro/sw"}
	if *compare {
		cols = append(cols, "mva-speedup")
	}
	tb := tables.New(fmt.Sprintf("Simulation — N=%d, %d%% sharing, %d cycles, seed %d",
		*n, *sharing, *cycles, *seed), cols...)
	for _, p := range protos {
		r, err := cachesim.RunContext(ctx, cachesim.Config{N: *n, Protocol: p, Workload: ws,
			Seed: *seed, WarmupCycles: *warmup, MeasureCycles: *cycles})
		if err != nil {
			fatal(fmt.Errorf("%w (protocol %s)", err, p.Name))
		}
		o := r.Observed.Workload
		row := []any{p.Name, r.Speedup,
			fmt.Sprintf("[%.3f, %.3f]", r.SpeedupCI.Lo(), r.SpeedupCI.Hi()),
			r.R, r.UBus, r.UMem,
			o.AmodPrivate, o.AmodSw, o.CsupplySro, o.CsupplySw,
			fmt.Sprintf("%.1f/%.1f/%.1f", r.MeanResponse[0], r.MeanResponse[1], r.MeanResponse[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", r.P95Response[0], r.P95Response[1], r.P95Response[2])}
		if *compare {
			mp, _ := snoopmva.ProtocolByName(p.Name) // p is a named preset, so it resolves
			m, err := snoopmva.Solve(mp, snoopmva.AppendixA(snoopmva.Sharing(*sharing)), *n)
			if err != nil {
				fatal(err)
			}
			row = append(row, m.Speedup)
		}
		tb.AddRow(row...)
	}
	if err := tb.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println("\n(*) emergent quantities: parameters to the analytical models, measured outcomes here")
}

// fatal prints err under the command's name and exits 1. Errors from
// internal/cachesim already carry that name as their prefix, so it is not
// added twice.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "cachesim: ") {
		msg = "cachesim: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
