// Stress test (Section 4.3): deliberately unrealistic parameters that
// maximize cache interference — every miss cache-supplied, heavy sharing,
// a 10% shared-writable hit rate — hunting for configurations where the
// mean-value equations break down. The paper found the MVA stayed within
// 5% of the detailed model; this example re-runs that hunt.
//
//	go run ./examples/stresstest
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"snoopmva"
)

func main() {
	ctx := context.Background()
	w := snoopmva.StressWorkload()
	fmt.Println("Stress workload: rep=amod_sw=0, csupply=1, p_sw=0.2, h_sw=0.1")
	fmt.Printf("%4s %12s %14s %10s\n", "N", "MVA", "detailed(GTPN)", "rel-err")
	worst := 0.0
	for _, n := range []int{1, 2, 3, 4, 5, 6} {
		// Ablate the submodels the detailed net does not include, so the
		// comparison isolates the bus-queueing approximation (the part
		// the stress test attacks).
		mva, err := snoopmva.SolveWithContext(ctx, snoopmva.WriteOnce(), w, snoopmva.Timing{}, n,
			snoopmva.Options{NoCacheInterference: true, NoMemoryInterference: true})
		if err != nil {
			log.Fatal(err)
		}
		det, err := snoopmva.SolveDetailedContext(ctx, snoopmva.WriteOnce(), w, n)
		if err != nil {
			log.Fatal(err)
		}
		rel := math.Abs(mva.Speedup-det.Speedup) / det.Speedup
		if rel > worst {
			worst = rel
		}
		fmt.Printf("%4d %12.4f %14.4f %9.1f%%\n", n, mva.Speedup, det.Speedup, rel*100)
	}
	verdict := "within the paper's 5% band — the MVA is robust"
	if worst > 0.05 {
		verdict = "OUTSIDE the paper's 5% band"
	}
	fmt.Printf("\nworst relative error: %.1f%% — %s\n", worst*100, verdict)

	// The full model (with cache and memory interference) on the same
	// stress workload, out to sizes the detailed model cannot reach.
	fmt.Println("\nFull MVA at large N (unreachable by the detailed model):")
	for _, n := range []int{10, 20, 50, 100} {
		res, err := snoopmva.Solve(snoopmva.WriteOnce(), w, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  N=%-4d speedup %.3f  bus %.0f%%\n", n, res.Speedup, res.BusUtilization*100)
	}
}
