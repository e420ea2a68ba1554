// Quickstart: solve the paper's MVA model for Goodman's Write-Once
// protocol at the Appendix A workload and print the headline measures.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"snoopmva"
)

func main() {
	ctx := context.Background()
	// The paper's 5%-sharing workload (Appendix A).
	w := snoopmva.AppendixA(snoopmva.Sharing5)

	// Solve the customized mean-value model for a ten-processor system.
	res, err := snoopmva.Solve(snoopmva.WriteOnce(), w, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Write-Once, 5%% sharing, N=10\n")
	fmt.Printf("  speedup            %.3f\n", res.Speedup)
	fmt.Printf("  processing power   %.3f\n", res.ProcessingPower)
	fmt.Printf("  mean request cycle %.3f cycles\n", res.R)
	fmt.Printf("  bus utilization    %.1f%%\n", res.BusUtilization*100)
	fmt.Printf("  mean bus wait      %.3f cycles\n", res.BusWait)
	fmt.Printf("  solved in          %d fixed-point iterations\n", res.Iterations)

	// The same configuration under the Dragon protocol (all four
	// modifications): update-based coherence keeps shared-writable hit
	// rates high and removes most coherence misses.
	dragon, err := snoopmva.Solve(snoopmva.Dragon(), w, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDragon under the same workload: speedup %.3f (%+.1f%%)\n",
		dragon.Speedup, 100*(dragon.Speedup/res.Speedup-1))

	// Cross-check the MVA against the detailed Petri-net model — cheap at
	// small N, and the reason the MVA matters at large N.
	det, err := snoopmva.SolveDetailedContext(ctx, snoopmva.WriteOnce(), w, 4)
	if err != nil {
		log.Fatal(err)
	}
	mva4, err := snoopmva.Solve(snoopmva.WriteOnce(), w, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nN=4 cross-check: MVA %.3f vs detailed model %.3f (%d states)\n",
		mva4.Speedup, det.Speedup, det.States)
}
