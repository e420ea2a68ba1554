// Command gtpnsolve runs the detailed Generalized Timed Petri Net model —
// the paper's expensive comparator — for small system sizes, and reports
// the reachability-graph size, the solve's time and the megabytes it
// allocated alongside the performance measures.
//
// Examples:
//
//	gtpnsolve -sharing 5 -n 4
//	gtpnsolve -mods 1 -sharing 20 -sweep 1,2,4,6 -compare
//	gtpnsolve -sweep 2..8 -compare
//	gtpnsolve -n 3 -perproc        # show the exploded state space
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"snoopmva"
	"snoopmva/internal/gridspec"
	"snoopmva/internal/gtpnmodel"
	"snoopmva/internal/petri"
	"snoopmva/internal/protocol"
	"snoopmva/internal/tables"
	"snoopmva/internal/workload"
)

func main() {
	var (
		mods      = flag.String("mods", "", "comma-separated modification numbers 1-4")
		sharing   = flag.Int("sharing", 5, "Appendix A sharing level: 1, 5 or 20")
		n         = flag.Int("n", 4, "number of processors")
		sweep     = flag.String("sweep", "", "system sizes, e.g. 1,2,4 or 2..12 (overrides -n)")
		compare   = flag.Bool("compare", false, "add MVA columns for comparison")
		perProc   = flag.Bool("perproc", false, "also count the per-processor (exploded) state space")
		maxStates = flag.Int("maxstates", 500000, "state-space cap")
		memory    = flag.Bool("memory", false, "model main-memory module contention (posted writes)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (e.g. 1m; 0 = no limit)")
	)
	flag.Parse()
	if *maxStates < 1 {
		fatal(fmt.Errorf("-maxstates must be at least 1 (got %d)", *maxStates))
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

	lvl, err := workload.SharingPercent(*sharing)
	if err != nil {
		fatal(err)
	}
	ws := workload.AppendixA(lvl)
	ms, err := parseMods(*mods)
	if err != nil {
		fatal(err)
	}
	ns := []int{*n}
	if *sweep != "" {
		if ns, err = gridspec.ParseSizes(*sweep); err != nil {
			fatal(fmt.Errorf("-sweep: %w", err))
		}
	}

	cols := []string{"N", "states", "speedup", "R", "U_bus", "solve-time", "alloc-MB"}
	if *perProc {
		cols = append(cols, "perproc-states")
	}
	if *compare {
		cols = append(cols, "mva-speedup", "rel-diff-%")
	}
	tb := tables.New(fmt.Sprintf("GTPN results — %v, %d%% sharing", ms, *sharing), cols...)

	for _, size := range ns {
		cfg := gtpnmodel.Config{Workload: ws, Mods: ms, N: size, ModelMemory: *memory}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		g, err := gtpnmodel.SolveContext(ctx, cfg, petri.Options{MaxStates: *maxStates})
		if err != nil {
			fatal(fmt.Errorf("N=%d: %w", size, err))
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		row := []any{size, g.States, g.Speedup, g.R, g.UBus, elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(after.TotalAlloc-before.TotalAlloc)/1e6)}
		if *perProc {
			pp, err := gtpnmodel.StateCountContext(ctx, cfg, true, petri.Options{MaxStates: *maxStates})
			if err != nil {
				row = append(row, "> cap")
			} else {
				row = append(row, pp)
			}
		}
		if *compare {
			// Like for like: the net models no cache interference, and
			// memory interference only under -memory.
			p := snoopmva.WithMods(modsToInts(ms)...)
			m, err := snoopmva.SolveWithContext(ctx, p, snoopmva.AppendixA(snoopmva.Sharing(*sharing)),
				snoopmva.Timing{}, size, snoopmva.Options{NoCacheInterference: true, NoMemoryInterference: !*memory})
			if err != nil {
				fatal(err)
			}
			row = append(row, m.Speedup, fmt.Sprintf("%+.1f", 100*(m.Speedup-g.Speedup)/g.Speedup))
		}
		tb.AddRow(row...)
	}
	if err := tb.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

func parseMods(s string) (protocol.ModSet, error) {
	if s == "" {
		return 0, nil
	}
	nums, err := parseInts(s)
	if err != nil {
		return 0, err
	}
	var ms protocol.ModSet
	for _, v := range nums {
		if v < 1 || v > 4 {
			return 0, fmt.Errorf("modification %d outside 1-4", v)
		}
		ms = ms.With(protocol.Mod(v))
	}
	return ms, ms.Valid()
}

func modsToInts(ms protocol.ModSet) []int {
	var out []int
	for _, m := range ms.Mods() {
		out = append(out, int(m))
	}
	return out
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
	fmt.Fprintln(os.Stderr, "gtpnsolve:", err)
	os.Exit(1)
}
