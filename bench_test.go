package snoopmva

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (regenerating the artifact end to end), the solution-cost
// benchmarks behind the paper's "seconds, not hours" claim, and ablation
// benchmarks for the modeling ingredients DESIGN.md calls out.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Artifact benches use a trimmed experiment configuration (detailed
// comparator capped at N=2, short simulations) so the suite completes in
// seconds; cmd/paperrepro runs the full-size versions.

import (
	"context"
	"io"
	"testing"

	"snoopmva/internal/cachesim"
	"snoopmva/internal/exp"
	"snoopmva/internal/fit"
	"snoopmva/internal/gtpnmodel"
	"snoopmva/internal/mva"
	"snoopmva/internal/petri"
	"snoopmva/internal/protocol"
	"snoopmva/internal/sensitivity"
	"snoopmva/internal/trace"
	"snoopmva/internal/workload"
)

// benchCfg trims the expensive components for benchmarking.
var benchCfg = exp.RunConfig{GTPNMaxN: 2, SimCycles: 20000, Seed: 2}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.WriteMarkdown(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact (DESIGN.md §5) ---

func BenchmarkTable41a(b *testing.B)          { benchExperiment(b, "tab4.1a") }
func BenchmarkTable41b(b *testing.B)          { benchExperiment(b, "tab4.1b") }
func BenchmarkTable41c(b *testing.B)          { benchExperiment(b, "tab4.1c") }
func BenchmarkFigure41(b *testing.B)          { benchExperiment(b, "fig4.1") }
func BenchmarkBusUtilization(b *testing.B)    { benchExperiment(b, "busutil") }
func BenchmarkStressTest(b *testing.B)        { benchExperiment(b, "stress") }
func BenchmarkProcessingPower(b *testing.B)   { benchExperiment(b, "power") }
func BenchmarkBusUtilKEWP85(b *testing.B)     { benchExperiment(b, "kewp85") }
func BenchmarkAmodSensitivity(b *testing.B)   { benchExperiment(b, "arba86") }
func BenchmarkAsymptotic(b *testing.B)        { benchExperiment(b, "asymptotic") }
func BenchmarkSolveCostArtifact(b *testing.B) { benchExperiment(b, "solvecost") }

// --- solver-cost benchmarks (Section 3.2's claim) ---

// BenchmarkSolverScaling shows the MVA solve cost is flat in system size.
func BenchmarkSolverScaling(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		b.Run(byN(n), func(b *testing.B) {
			m := mva.Model{Workload: workload.AppendixA(workload.Sharing5)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Solve(n, mva.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGTPNStateSpace shows the detailed model's reachability graph —
// and therefore its solution cost — exploding with system size, lumped
// (polynomial) vs per-processor (exponential).
func BenchmarkGTPNStateSpace(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		b.Run("lumped-"+byN(n), func(b *testing.B) {
			cfg := gtpnmodel.Config{Workload: workload.AppendixA(workload.Sharing5), N: n}
			states := 0
			for i := 0; i < b.N; i++ {
				var err error
				states, err = gtpnmodel.StateCount(cfg, false, petri.Options{MaxStates: 2000000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(states), "states")
		})
	}
	for _, n := range []int{1, 2, 3} {
		b.Run("perproc-"+byN(n), func(b *testing.B) {
			cfg := gtpnmodel.Config{Workload: workload.AppendixA(workload.Sharing5), N: n}
			states := 0
			for i := 0; i < b.N; i++ {
				var err error
				states, err = gtpnmodel.StateCount(cfg, true, petri.Options{MaxStates: 2000000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkGTPNSolve times the full detailed solution at small N, up to
// the N=6 (7721-state) chain the default SolveBest ladder still solves,
// and at N=8 (20,361 states), the size larger solves are extrapolated from.
func BenchmarkGTPNSolve(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(byN(n), func(b *testing.B) {
			cfg := gtpnmodel.Config{Workload: workload.AppendixA(workload.Sharing5), N: n}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gtpnmodel.Solve(cfg, petri.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures detailed-simulation throughput
// (cycles simulated per wall-second scales the whole study). The precision
// cases are SimulateContext's runs: the default 300k-cycle cap, stopped
// once the speedup is known to ±1 %; they report the cycles measured.
func BenchmarkSimulator(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(byN(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := cachesim.Run(cachesim.Config{
					N:             n,
					Protocol:      protocol.Illinois,
					Workload:      workload.AppendixA(workload.Sharing5),
					Seed:          uint64(i + 1),
					WarmupCycles:  2000,
					MeasureCycles: 20000,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{4, 6} {
		b.Run("precision/"+byN(n), func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				r, err := cachesim.Run(cachesim.Config{
					N:            n,
					Protocol:     protocol.Illinois,
					Workload:     workload.AppendixA(workload.Sharing5),
					Seed:         uint64(i + 1),
					RelPrecision: simPrecision,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
		})
	}
}

// --- ablation benchmarks: each reports the speedup estimate with one
// modeling ingredient removed, quantifying its contribution (DESIGN.md §5,
// "ablation benches") ---

func benchAblation(b *testing.B, opts mva.Options) {
	b.Helper()
	m := mva.Model{Workload: workload.AppendixA(workload.Sharing20)}
	var last mva.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = m.Solve(10, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Speedup, "speedup")
}

func BenchmarkAblationFullModel(b *testing.B) {
	benchAblation(b, mva.Options{})
}

func BenchmarkAblationNoCacheInterference(b *testing.B) {
	benchAblation(b, mva.Options{NoCacheInterference: true})
}

func BenchmarkAblationNoMemoryInterference(b *testing.B) {
	benchAblation(b, mva.Options{NoMemoryInterference: true})
}

func BenchmarkAblationNoResidualLife(b *testing.B) {
	benchAblation(b, mva.Options{NoResidualLife: true})
}

func BenchmarkAblationExponentialBus(b *testing.B) {
	benchAblation(b, mva.Options{ExponentialBus: true})
}

func BenchmarkAblationNoArrivalCorrection(b *testing.B) {
	benchAblation(b, mva.Options{NoArrivalCorrection: true})
}

func byN(n int) string {
	switch {
	case n >= 10000:
		return "N10000"
	case n >= 1000:
		return "N1000"
	case n >= 100:
		return "N100"
	default:
		digits := []byte{'N'}
		if n >= 10 {
			digits = append(digits, byte('0'+n/10))
		}
		digits = append(digits, byte('0'+n%10))
		return string(digits)
	}
}

// BenchmarkRunCampaignMVAOnly measures one interactive sweep through the
// campaign runner: 7 protocols × N = 1..64, MVA only, two workers, no
// journal. Next to a bare loop of the same solves it sizes the runner's
// per-point overhead.
func BenchmarkRunCampaignMVAOnly(b *testing.B) {
	spec := CampaignSpec{Points: mvaCurves(), Workers: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension benchmarks ---

// BenchmarkTraceFit measures the measurement-loop cost: trace generation
// plus parameter estimation.
func BenchmarkTraceFit(b *testing.B) {
	g, err := trace.NewGenerator(trace.GeneratorConfig{
		N: 4, Workload: workload.AppendixA(workload.Sharing5), Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]trace.Ref, 100000)
	for i := range refs {
		refs[i] = g.Next(i % 4)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fit.Fit(refs, fit.Config{N: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity measures the tornado-analysis cost (a full
// elasticity ranking is ~30 MVA solves).
func BenchmarkSensitivity(b *testing.B) {
	study := sensitivity.Study{
		Model:  mva.Model{Workload: workload.AppendixA(workload.Sharing5)},
		N:      20,
		Metric: sensitivity.Speedup,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.Elasticities(0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSplitTransaction reports the speedup with a
// split-transaction bus — the architectural what-if the late-80s designs
// moved toward — against the paper's circuit-switched bus.
func BenchmarkAblationSplitTransaction(b *testing.B) {
	benchAblation(b, mva.Options{SplitTransactionBus: true})
}
