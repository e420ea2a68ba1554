// Command sensitivity ranks the workload parameters by their influence on
// the MVA model's predictions: local elasticities and tornado ranges. It
// answers the question behind the paper's closing call for "workload
// measurement studies": which parameters must be measured carefully?
//
// Examples:
//
//	sensitivity -sharing 5 -n 20
//	sensitivity -protocol Dragon -metric bus -tornado 0.25
//	sensitivity -sweep h_sw -values 0.1,0.3,0.5,0.7,0.9
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"snoopmva/internal/mva"
	"snoopmva/internal/protocol"
	"snoopmva/internal/sensitivity"
	"snoopmva/internal/tables"
	"snoopmva/internal/workload"
)

func main() {
	var (
		protoName = flag.String("protocol", "Write-Once", "named protocol")
		sharing   = flag.Int("sharing", 5, "Appendix A sharing level: 1, 5 or 20")
		n         = flag.Int("n", 20, "number of processors")
		metric    = flag.String("metric", "speedup", "speedup, bus or response")
		tornado   = flag.Float64("tornado", 0.25, "tornado range as a fraction of each base value")
		sweep     = flag.String("sweep", "", "sweep a single parameter instead (e.g. h_sw)")
		values    = flag.String("values", "", "comma-separated values for -sweep")
	)
	flag.Parse()

	lvl, err := workload.SharingPercent(*sharing)
	if err != nil {
		fatal(err)
	}
	if !(*tornado > 0) {
		fatal(fmt.Errorf("-tornado must be > 0, got %v", *tornado))
	}
	p, ok := protocol.ByName(*protoName)
	if !ok {
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}
	var m sensitivity.Metric
	switch *metric {
	case "speedup":
		m = sensitivity.Speedup
	case "bus":
		m = sensitivity.BusUtilization
	case "response":
		m = sensitivity.ResponseTime
	default:
		fatal(fmt.Errorf("unknown metric %q", *metric))
	}
	study := sensitivity.Study{
		Model:  mva.Model{Workload: workload.AppendixA(lvl), Mods: p.Mods, WriteThroughBase: p.WriteThroughBase},
		N:      *n,
		Metric: m,
	}

	if *sweep != "" {
		if *values == "" {
			fatal(fmt.Errorf("-sweep requires -values"))
		}
		var vals []float64
		for _, part := range strings.Split(*values, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatal(err)
			}
			vals = append(vals, v)
		}
		pts, skipped, err := study.SweepParam(sensitivity.Param(*sweep), vals)
		if err != nil {
			fatal(err)
		}
		tb := tables.New(fmt.Sprintf("Sweep of %s (%s, N=%d, metric %s)", *sweep, p.Name, *n, m),
			*sweep, m.String())
		for _, pt := range pts {
			tb.AddRow(pt.Value, pt.Metric)
		}
		if err := tb.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
		if skipped > 0 {
			fmt.Printf("(%d values skipped as invalid)\n", skipped)
		}
		return
	}

	es, err := study.Elasticities(0.02)
	if err != nil {
		fatal(err)
	}
	et := tables.New(fmt.Sprintf("Elasticities of %s (%s, %d%% sharing, N=%d)", m, p.Name, *sharing, *n),
		"parameter", "base", "elasticity d ln M / d ln p")
	for _, e := range es {
		v := "n/a"
		if e.OK {
			v = fmt.Sprintf("%+.4f", e.Value)
		}
		et.AddRow(string(e.Param), e.Base, v)
	}
	if err := et.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}

	bars, err := study.Tornado(*tornado)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	tt := tables.New(fmt.Sprintf("Tornado (±%.0f%% of base)", *tornado*100),
		"parameter", "range", "metric span", "low", "high")
	for _, b := range bars {
		tt.AddRow(string(b.Param),
			fmt.Sprintf("[%.3g, %.3g]", b.Lo, b.Hi),
			b.AbsoluteSpan, b.MetricAtLo, b.MetricAtHi)
	}
	if err := tt.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

// fatal prints err under the command's name and exits 1. Errors from
// internal/sensitivity already carry that name as their prefix, so it is
// not added twice.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "sensitivity: ") {
		msg = "sensitivity: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
