// Command mvasolve solves the paper's mean-value-analysis model for one
// protocol / workload / system-size configuration, or sweeps system sizes.
//
// Examples:
//
//	mvasolve -protocol Dragon -sharing 5 -n 10
//	mvasolve -mods 1,4 -sharing 20 -sweep 1,2,4,8,16,32 -format csv
//	mvasolve -protocol Illinois -stress -sweep 1..8
//	mvasolve -protocol Write-Once -sharing 5 -n 10 -tau 4 -hsw 0.8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"snoopmva"
	"snoopmva/internal/gridspec"
	"snoopmva/internal/tables"
)

func main() {
	var (
		protoName = flag.String("protocol", "Write-Once", "named protocol (Write-Once, Synapse, Berkeley, Illinois, Dragon, RWB, Write-Through)")
		mods      = flag.String("mods", "", "comma-separated modification numbers 1-4 applied to Write-Once (overrides -protocol)")
		sharing   = flag.Int("sharing", 5, "Appendix A sharing level: 1, 5 or 20 (percent)")
		n         = flag.Int("n", 10, "number of processors")
		sweep     = flag.String("sweep", "", "system sizes to sweep, e.g. 1,2,4 or 1..8 (overrides -n)")
		format    = flag.String("format", "text", "output format: text, csv, markdown")
		tau       = flag.Float64("tau", 0, "override mean think time τ (cycles)")
		hsw       = flag.Float64("hsw", 0, "override shared-writable hit rate")
		amodP     = flag.Float64("amodp", 0, "override amod_private")
		stress    = flag.Bool("stress", false, "use the Section 4.3 stress-test workload")
		explain   = flag.Bool("explain", false, "print an equation-by-equation breakdown (single -n only)")
		paramFile = flag.String("params", "", "load workload parameters from a JSON file (fields named as in the paper; optional \"base\" seeds an Appendix A level)")
		timeout   = flag.Duration("timeout", 0, "abort the solve after this long (e.g. 30s; 0 = no limit)")
	)
	flag.Parse()
	write, err := tables.WriterFor(*format)
	if err != nil {
		fatal(err)
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must not be negative (got %v)", *timeout))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	proto, err := pickProtocol(*protoName, *mods)
	if err != nil {
		fatal(err)
	}
	w, label, err := pickWorkload(*sharing, *stress, *paramFile)
	if err != nil {
		fatal(err)
	}
	// An override applies whenever its flag is given, zero included, and
	// the title names it; the solve's workload validation rejects
	// out-of-range values.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tau":
			w.Tau = *tau
		case "hsw":
			w.HSw = *hsw
		case "amodp":
			w.AmodPrivate = *amodP
		default:
			return
		}
		label += fmt.Sprintf(", -%s %s", f.Name, f.Value)
	})

	ns := []int{*n}
	if *sweep != "" {
		if ns, err = gridspec.ParseSizes(*sweep); err != nil {
			fatal(fmt.Errorf("-sweep: %w", err))
		}
	}
	if *explain {
		if len(ns) != 1 {
			fatal(fmt.Errorf("-explain needs a single -n, not a sweep"))
		}
		if err := snoopmva.Explain(os.Stdout, proto, w, ns[0]); err != nil {
			fatal(err)
		}
		return
	}
	results, err := snoopmva.Sweep(ctx, snoopmva.Direct, proto, w, ns, 0)
	if err != nil {
		fatal(err)
	}
	tb := tables.New(fmt.Sprintf("MVA results — %v, %s", proto, label),
		"N", "speedup", "power", "R", "U_bus", "w_bus", "U_mem", "w_mem", "iterations")
	for _, r := range results {
		tb.AddRow(r.N, r.Speedup, r.ProcessingPower, r.R,
			r.BusUtilization, r.BusWait, r.MemUtilization, r.MemWait, r.Iterations)
	}
	if err := write(tb, os.Stdout); err != nil {
		fatal(err)
	}
}

func pickProtocol(name, mods string) (snoopmva.Protocol, error) {
	if mods != "" {
		nums, err := parseInts(mods)
		if err != nil {
			return snoopmva.Protocol{}, err
		}
		return snoopmva.WithMods(nums...), nil
	}
	p, ok := snoopmva.ProtocolByName(name)
	if !ok {
		return snoopmva.Protocol{}, fmt.Errorf("unknown protocol %q", name)
	}
	return p, nil
}

// pickWorkload returns the workload the flags choose, and its name for
// the table title: a -params file wins over -stress, which wins over
// -sharing.
func pickWorkload(sharing int, stress bool, paramFile string) (snoopmva.Workload, string, error) {
	switch {
	case paramFile != "":
		w, err := snoopmva.LoadWorkload(paramFile)
		return w, filepath.Base(paramFile), err
	case stress:
		return snoopmva.StressWorkload(), "stress test", nil
	case sharing == 1, sharing == 5, sharing == 20:
		return snoopmva.AppendixA(snoopmva.Sharing(sharing)), fmt.Sprintf("%d%% sharing", sharing), nil
	}
	return snoopmva.Workload{}, "", fmt.Errorf("sharing must be 1, 5 or 20 (got %d)", sharing)
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mvasolve:", err)
	os.Exit(1)
}
