// Protocol comparison across all three models: the MVA (microseconds),
// the detailed Petri-net model (small N), and the cycle-level simulator —
// the triangle of evidence the paper's validation methodology rests on.
//
//	go run ./examples/protocolcompare
package main

import (
	"context"
	"fmt"
	"log"

	"snoopmva"
)

func main() {
	ctx := context.Background()
	w := snoopmva.AppendixA(snoopmva.Sharing5)
	const n = 6

	fmt.Printf("All named protocols at 5%% sharing, N=%d\n\n", n)
	fmt.Printf("%-14s %10s %14s %12s\n", "protocol", "MVA", "detailed(GTPN)", "simulation")
	fmt.Printf("%s\n", "------------------------------------------------------")
	for _, p := range snoopmva.Protocols() {
		mva, err := snoopmva.Solve(p, w, n)
		if err != nil {
			log.Fatalf("%v: %v", p, err)
		}
		det, err := snoopmva.SolveDetailedContext(ctx, p, w, n)
		if err != nil {
			log.Fatalf("%v: %v", p, err)
		}
		sim, err := snoopmva.SimulateContext(ctx, p, w, n, snoopmva.SimOptions{Seed: 42, MeasureCycles: 200000})
		if err != nil {
			log.Fatalf("%v: %v", p, err)
		}
		fmt.Printf("%-14s %10.3f %14.3f %12.3f\n", p.Name(), mva.Speedup, det.Speedup, sim.Speedup)
	}

	fmt.Println("\nEmergent workload quantities from the simulator (Write-Once):")
	sim, err := snoopmva.SimulateContext(ctx, snoopmva.WriteOnce(), w, n, snoopmva.SimOptions{Seed: 42, MeasureCycles: 200000})
	if err != nil {
		log.Fatal(err)
	}
	o := sim.Observed
	for _, q := range []struct {
		name          string
		input, actual float64
	}{
		{"h_sw", w.HSw, o.HSw},
		{"amod_private", w.AmodPrivate, o.AmodPrivate},
		{"amod_sw", w.AmodSw, o.AmodSw},
		{"csupply_sro", w.CsupplySro, o.CsupplySro},
		{"csupply_sw", w.CsupplySw, o.CsupplySw},
		{"wb_csupply", w.WbCsupply, o.WbCsupply},
	} {
		fmt.Printf("  %-12s model input %.2f, measured %.3f\n", q.name, q.input, q.actual)
	}
	fmt.Println("\nThe analytical models take these as parameters; the simulator")
	fmt.Println("measures them — differences explain residual speedup gaps.")
}
