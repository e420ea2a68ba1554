package main

import (
	"math/rand/v2"

	"snoopmva"
)

// Inputs are made from the run's seed alone; the program under test sees
// only the generated points and requests. Every pass, phase and request
// stream draws from its own PCG stream keyed by (seed, stream id), so one
// stream's length never shifts another's values.

// Stream ids, one per independent input sequence.
const (
	streamPass     = 1 << 32 // + pass index: perturbations of one pass
	streamSample   = 2 << 32 // + pass index: which points a pass checks
	streamHot      = 3 << 32 // the serve hot set
	streamServe    = 4 << 32 // + phase index: one serve phase's requests
	streamDetailed = 5 << 32 // + pass index: simulator seeds
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// sweepBases and detailedBases are the workloads the grids perturb.
var sweepBases = []snoopmva.Workload{
	snoopmva.AppendixA(snoopmva.Sharing1),
	snoopmva.AppendixA(snoopmva.Sharing5),
	snoopmva.AppendixA(snoopmva.Sharing20),
	snoopmva.StressWorkload(),
}

var detailedBases = []snoopmva.Workload{
	snoopmva.AppendixA(snoopmva.Sharing5),
	snoopmva.AppendixA(snoopmva.Sharing20),
}

// perturb scales w's parameters by independent factors in [0.9, 1.1]:
// τ, the miss ratio 1−h of each stream, and every other probability,
// clamped to [0, 1]. The stream partition is kept, so the result passes
// Workload.Validate; every call yields a workload no earlier call produced,
// so no cache keyed on the inputs can carry over between passes.
func perturb(w snoopmva.Workload, r *rand.Rand) snoopmva.Workload {
	f := func() float64 { return 0.9 + 0.2*r.Float64() }
	prob := func(x float64) float64 { return min(1, max(0, x*f())) }
	hit := func(h float64) float64 { return 1 - prob(1-h) }
	w.Tau *= f()
	w.HPrivate, w.HSro, w.HSw = hit(w.HPrivate), hit(w.HSro), hit(w.HSw)
	w.RPrivate, w.RSw = prob(w.RPrivate), prob(w.RSw)
	w.AmodPrivate, w.AmodSw = prob(w.AmodPrivate), prob(w.AmodSw)
	w.CsupplySro, w.CsupplySw = prob(w.CsupplySro), prob(w.CsupplySw)
	w.WbCsupply = prob(w.WbCsupply)
	w.RepP, w.RepSw = prob(w.RepP), prob(w.RepSw)
	return w
}

// row is one closed-loop op of a campaign workload: the points one
// RunCampaign solves.
type row struct {
	Points []snoopmva.CampaignPoint
}

// sweepPass is pass p of the sweep workload, one row: 7 protocols ×
// {Sharing1, Sharing5, Sharing20, Stress} × N = 1..maxN, MVA only.
func sweepPass(seed uint64, p, maxN int) []row {
	r := newRand(seed, streamPass+uint64(p))
	mvaOnly := snoopmva.Budget{MaxStates: -1, SimCycles: -1}
	var pts []snoopmva.CampaignPoint
	for _, proto := range snoopmva.Protocols() {
		for _, base := range sweepBases {
			w := perturb(base, r)
			for n := 1; n <= maxN; n++ {
				pts = append(pts, snoopmva.CampaignPoint{Protocol: proto, Workload: w, N: n, Budget: mvaOnly})
			}
		}
	}
	return []row{{pts}}
}

// detailedPass is pass p of the detailed workload: 7 protocols ×
// {Sharing5, Sharing20} rows, one per protocol at a (perturbed) sharing
// level, each with GTPN points at gtpnNs under the default ladder and
// simulator points at simNs with the GTPN stage skipped and a simCycles
// measurement window (0: the simulator default).
func detailedPass(seed uint64, p int, gtpnNs, simNs []int, simCycles int64) []row {
	r := newRand(seed, streamPass+uint64(p))
	simSeeds := newRand(seed, streamDetailed+uint64(p))
	var rows []row
	for _, proto := range snoopmva.Protocols() {
		for _, base := range detailedBases {
			w := perturb(base, r)
			var pts []snoopmva.CampaignPoint
			for _, n := range gtpnNs {
				pts = append(pts, snoopmva.CampaignPoint{Protocol: proto, Workload: w, N: n})
			}
			for _, n := range simNs {
				b := snoopmva.Budget{MaxStates: -1, SimCycles: simCycles, Seed: simSeeds.Uint64()}
				pts = append(pts, snoopmva.CampaignPoint{Protocol: proto, Workload: w, N: n, Budget: b})
			}
			rows = append(rows, row{pts})
		}
	}
	return rows
}

// samplePoints picks k distinct indices in [0, n) for pass p's checks.
func samplePoints(seed uint64, p, n, k int) []int {
	r := newRand(seed, streamSample+uint64(p))
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}

// config is one solve input of the serve workload.
type config struct {
	Protocol snoopmva.Protocol
	Workload snoopmva.Workload
	N        int
}

// serveBases are the workloads serve requests perturb: the paper's three
// sharing levels. The stress workload is left to sweep: at large N its
// solves take milliseconds, which would make serve measure the solver
// rather than the serving layers.
var serveBases = sweepBases[:3]

// randomConfig draws a config: a protocol, a perturbed sharing level, and
// N in 1..64.
func randomConfig(r *rand.Rand) config {
	protos := snoopmva.Protocols()
	return config{
		Protocol: protos[r.IntN(len(protos))],
		Workload: perturb(serveBases[r.IntN(len(serveBases))], r),
		N:        1 + r.IntN(64),
	}
}

// hotSet is the serve workload's set of repeated configurations.
func hotSet(seed uint64, size int) []config {
	r := newRand(seed, streamHot)
	out := make([]config, size)
	for i := range out {
		out[i] = randomConfig(r)
	}
	return out
}
