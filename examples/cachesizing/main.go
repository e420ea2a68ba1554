// Cache sizing: how big must the cache be before the BUS, not the miss
// rate, limits speedup? The paper takes hit rates as workload inputs; this
// example derives them from a reference trace with Mattson's one-pass
// stack-distance analysis ([Smit82]-style measurement) and feeds the
// resulting h(capacity) curve through the MVA:
//
//	trace → stack-distance profile → hit-rate curve → speedup(capacity)
//
// The trace runs on the shared block geometry of internal/workload: a
// 128-block private working set drawn from a 512-block private pool. The
// punchline is the knee at the working set: below it the miss rate limits
// speedup, past it the shared bus does — exactly the regime the paper's
// model exists to expose.
//
//	go run ./examples/cachesizing
package main

import (
	"fmt"
	"log"

	"snoopmva"
	"snoopmva/internal/stackdist"
	"snoopmva/internal/trace"
	"snoopmva/internal/workload"
)

func main() {
	// 1. A reference trace for one processor's private stream.
	g, err := trace.NewGenerator(trace.GeneratorConfig{
		N:        1,
		Workload: workload.AppendixA(workload.Sharing5),
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	profile := stackdist.New()
	const refs = 400000
	for i := 0; i < refs; i++ {
		r := g.Next(0)
		if r.Class == workload.Private {
			profile.Touch(uint64(r.Block))
		}
	}
	fmt.Printf("profiled %d private references, %d distinct blocks, %d cold misses\n\n",
		profile.Refs(), profile.Distinct(), profile.ColdMisses())

	// 2. Hit-rate curve → MVA speedup per candidate cache size.
	fmt.Println("cache size  h_private  N=20 speedup      gain  bus busy")
	w := snoopmva.AppendixA(snoopmva.Sharing5)
	prev := 0.0
	for _, capacity := range []int{16, 32, 64, 128, 256, 512, 1024} {
		h := profile.HitRate(capacity)
		w.HPrivate = h
		res, err := snoopmva.Solve(snoopmva.WriteOnce(), w, 20)
		if err != nil {
			log.Fatal(err)
		}
		gain := "        -"
		if prev > 0 {
			gain = fmt.Sprintf("%+8.1f%%", 100*(res.Speedup/prev-1))
		}
		fmt.Printf("%10d  %9.4f  %12.3f %s  %7.0f%%\n",
			capacity, h, res.Speedup, gain, res.BusUtilization*100)
		prev = res.Speedup
	}

	// 3. The design question inverted: what capacity does a target hit
	// rate need?
	fmt.Println("\ncapacity needed for target private hit rates:")
	for _, target := range []float64{0.80, 0.90, 0.95} {
		c, err := profile.CapacityFor(target)
		if err != nil {
			fmt.Printf("  h >= %.2f: %v\n", target, err)
			continue
		}
		fmt.Printf("  h >= %.2f: %d blocks\n", target, c)
	}
	fmt.Println("\nthe knee sits at the 128-block working set: crossing it buys a")
	fmt.Println("factor of ~7, and past it the bus stays 90-99% busy. The jump at")
	fmt.Println("512 blocks is the whole 512-block private pool fitting (only cold")
	fmt.Println("misses remain), so 1024 buys nothing. Once the working set fits,")
	fmt.Println("the bus and protocol choice (Figure 4.1), not cache size, set speedup")
}
