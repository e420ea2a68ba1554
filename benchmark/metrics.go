package main

import "fmt"

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. An op is one RunCampaign of a row (sweep,
// detailed) or one request (serve). Times are without steal (clock.go),
// except serve's latency, which steal reaches as rare long stalls rather
// than in proportion. Tails are printed, not reported: on a shared
// virtual machine they follow the host.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median of repeated set-ups: fresh process state to first timed op
	{"points_per_s", "1/s"}, // solved points per second of op time; serve: answered points per second
	{"lat_p50_ms", "ms"},    // median op latency; serve: the mix's median request latency, as measured
	{"peak_rss_mb", "MB"},   // VmHWM of the workload process plus its snoopd child
}

// perLayer are the metrics of single layers, reported with tracing on.
// Every workload reports every one; a layer a workload does not reach
// reads 0. Layer costs are shares of the op's wall time, and the two
// per-call timings come from probes every workload runs on its own
// points.
var perLayer = []metricDef{
	{"campaign.self_pct", "%"},
	{"solvebest.self_pct", "%"},
	{"mva.self_pct", "%"},
	{"solvecache.self_pct", "%"},
	{"gtpnmodel.self_pct", "%"},
	{"cachesim.self_pct", "%"},
	{"snoopd.self_pct", "%"},
	{"wire.self_pct", "%"},
	{"admission.self_pct", "%"},
	{"mva.solve_us_p50", "us"},
	{"mva.solve_us_tail", "us"},
	{"mva.iterations_per_solve", "count"},
	{"campaign.attempts_per_point", "count"},
	{"solvebest.degraded_ratio", "ratio"},
	{"gtpnmodel.states_per_s", "1/s"},
	{"cachesim.cycles_per_s", "1/s"},
	{"solvecache.hit_ratio", "ratio"},
	{"solvecache.hit_us_p50", "us"},
	{"solvecache.evictions", "count"},
	{"admission.shed_ratio", "ratio"},
}

// report is what one workload run produces.
type report struct {
	Attempted int
	Failed    int
	// Failures lists the correctness checks that did not hold.
	Failures []string
	// Metrics holds the end-to-end values (untraced run) or the
	// per-layer values (traced run), by name.
	Metrics map[string]float64
}

func newReport() *report { return &report{Metrics: map[string]float64{}} }

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// checkDecomposition records a failed decomposition check. A small run,
// whose few ops leave the check to chance, only prints it.
func (r *report) checkDecomposition(cfg runConfig, err error) {
	if err != nil && !cfg.Small {
		r.fail("%v", err)
	}
}

// setLayerShares fills the *.self_pct metrics from an attribution: each
// layer's share of the time charged, a negative self time counting as
// none.
func (r *report) setLayerShares(a attribution) {
	charged := a.charged()
	for _, l := range allLayers {
		v := 0.0
		if charged > 0 {
			v = 100 * max(0, a.PerOpNs[l]) / charged
		}
		r.Metrics[l+".self_pct"] = v
	}
}
