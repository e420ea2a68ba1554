// The measurement loop: the paper closes by saying the model "can be put
// to good use for evaluating the protocols more thoroughly — all that is
// needed are workload measurement studies to aid in the assignment of
// parameter values." This example runs that loop end to end with the
// repository's tooling (internal/trace and internal/fit):
//
//  1. synthesize a memory-reference trace from known ("true") parameters,
//
//  2. estimate the basic parameters back from the raw trace, as a
//     measurement study would,
//
//  3. feed the estimates to the MVA and compare its predictions against
//     the truth, and against the sensitivity ranking that says where
//     measurement effort matters most.
//
//     go run ./examples/measurement
package main

import (
	"fmt"
	"log"
	"math"

	"snoopmva/internal/fit"
	"snoopmva/internal/mva"
	"snoopmva/internal/sensitivity"
	"snoopmva/internal/trace"
	"snoopmva/internal/workload"
)

func main() {
	truth := workload.AppendixA(workload.Sharing5)
	const n = 8

	// 1. Synthesize the "measured system".
	g, err := trace.NewGenerator(trace.GeneratorConfig{N: n, Workload: truth, Seed: 2026})
	if err != nil {
		log.Fatal(err)
	}
	refs := make([]trace.Ref, 0, 400000)
	for i := 0; i < cap(refs); i++ {
		refs = append(refs, g.Next(i%n))
	}
	fmt.Printf("synthesized %d references from the Appendix A 5%% workload\n\n", len(refs))

	// 2. Fit the parameters from the raw trace.
	est, err := fit.Fit(refs, fit.Config{N: n})
	if err != nil {
		log.Fatal(err)
	}
	// Note on reading the table: the generator only *targets* the stream
	// mix, read ratios and hit rates. Dirtiness-related quantities (amod,
	// rep, wb_csupply) are emergent properties of the reference stream —
	// a block written once stays dirty until eviction — so for those rows
	// the fitted value is the correct measurement of this trace, and the
	// "truth" column is merely the Appendix A value the paper assumed.
	fmt.Println("parameter        truth   fitted")
	for _, row := range []struct {
		name          string
		truth, fitted float64
	}{
		{"p_private", truth.PPrivate, est.Params.PPrivate},
		{"p_sw", truth.PSw, est.Params.PSw},
		{"h_private", truth.HPrivate, est.Params.HPrivate},
		{"h_sw", truth.HSw, est.Params.HSw},
		{"r_private", truth.RPrivate, est.Params.RPrivate},
		{"amod_private", truth.AmodPrivate, est.Params.AmodPrivate},
		{"csupply_sw", truth.CsupplySw, est.Params.CsupplySw},
		{"rep_p", truth.RepP, est.Params.RepP},
	} {
		fmt.Printf("%-14s %7.3f  %7.3f\n", row.name, row.truth, row.fitted)
	}

	// 3. Predictions from fitted vs true parameters.
	fmt.Println("\nMVA speedups: truth vs fitted parameters")
	worst := 0.0
	for _, sys := range []int{4, 10, 20, 50} {
		tRes, err := (mva.Model{Workload: truth, RawParams: true}).Solve(sys, mva.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fRes, err := (mva.Model{Workload: est.Params, RawParams: true}).Solve(sys, mva.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rel := math.Abs(fRes.Speedup-tRes.Speedup) / tRes.Speedup
		if rel > worst {
			worst = rel
		}
		fmt.Printf("  N=%-3d truth %6.3f  fitted %6.3f  (%.1f%%)\n",
			sys, tRes.Speedup, fRes.Speedup, rel*100)
	}
	fmt.Printf("worst prediction error from measured parameters: %.1f%%\n", worst*100)

	// Where should measurement effort go? The elasticity ranking answers.
	study := sensitivity.Study{
		Model:  mva.Model{Workload: truth, RawParams: true},
		N:      20,
		Metric: sensitivity.Speedup,
	}
	es, err := study.Elasticities(0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmost influential parameters (speedup elasticity at N=20):")
	for i, e := range es {
		if i >= 5 || math.IsNaN(e.Value) {
			break
		}
		fmt.Printf("  %-14s %+.3f\n", e.Param, e.Value)
	}
	fmt.Println("\nmeasure the top parameters carefully; the rest barely move the prediction")
}
