// Package gtpnmodel builds Generalized Timed Petri Net models of the
// snooping-cache multiprocessor and solves them with the internal/petri
// engine. This is the repository's stand-in for the detailed GTPN model of
// [VeHo86] that the paper validates its MVA against (the original net is
// not published in the paper; DESIGN.md §3 records the substitution).
//
// Two variants are provided:
//
//   - the lumped model exploits processor symmetry (tokens are
//     indistinguishable customers), keeping the state space tractable so
//     the detailed-vs-MVA comparison can run at the paper's system sizes;
//   - the per-processor model gives every processor its own places, which
//     reproduces the exponential state-space growth that made the original
//     GTPN impractical beyond ten or twelve processors (Section 3.2).
//
// Both model the same mechanics: geometrically distributed processor think
// time with mean τ, probabilistic request classification into local /
// broadcast / remote-read traffic, a single shared bus with deterministic,
// case-dependent access times (cache supply vs memory fetch, supplier and
// requester write-backs), and the one-cycle cache supply. Main-memory
// module contention and snoop-induced cache interference are second-order
// effects (bounded by d_mem/2 and the small R_local term) and are not
// modeled in the net; the validation tolerances account for this.
package gtpnmodel

import (
	"context"
	"fmt"
	"math"
	"strings"

	"snoopmva/internal/petri"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// maxInt returns the larger of two ints.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Config describes one detailed-model configuration.
type Config struct {
	// Workload holds the basic parameters; the Appendix A per-protocol
	// adjustments are applied unless RawParams is set.
	Workload  workload.Params
	Timing    workload.Timing
	Mods      protocol.ModSet
	RawParams bool
	// WriteThroughBase models the degenerate all-write-through protocol.
	WriteThroughBase bool
	// ModelMemory adds main-memory module contention to the net: word
	// writes hold one of BlockSize pooled module tokens for d_mem beyond
	// the bus cycle, and block write-backs briefly hold the whole pool —
	// the counterpart of the MVA's equations (11)-(12). Arbitration is
	// non-blocking: a transaction whose module is busy defers WITHOUT
	// holding the bus (a posted-write memory), which is slightly more
	// permissive than the MVA's equation (3), where the write-word holds
	// the bus through its memory wait. Off by default.
	ModelMemory bool
	// N is the number of processors.
	N int
}

func (c Config) timing() workload.Timing {
	if c.Timing == (workload.Timing{}) {
		return workload.DefaultTiming()
	}
	return c.Timing
}

func (c Config) derive() (workload.Derived, error) {
	if c.WriteThroughBase {
		return workload.DeriveWriteThrough(c.Workload, c.timing())
	}
	p := c.Workload
	if !c.RawParams {
		p = p.ForProtocol(c.Mods)
	}
	return workload.Derive(p, c.timing(), c.Mods)
}

// busCase is one remote-read service case with its deterministic duration.
type busCase struct {
	name     string
	prob     float64
	duration int
}

// rrCases enumerates the remote-read timing cases: {cache-clean,
// cache-dirty, memory} × {no requester write-back, requester write-back}.
func rrCases(d workload.Derived) []busCase {
	t := d.Timing
	pcs, pcsw, prw := d.PCsupplyRR, d.PCsupWbRR, d.PReqWbRR
	base := []busCase{
		{"cache-clean", pcs - pcsw, int(math.Round(t.TReadCacheSupply()))},
		{"cache-dirty", pcsw, int(math.Round(t.TReadCacheSupply() + t.TBlock))},
		{"memory", 1 - pcs, int(math.Round(t.TReadBase()))},
	}
	wb := int(math.Round(t.TBlock))
	var out []busCase
	for _, b := range base {
		if b.prob <= 0 {
			continue
		}
		if prw > 0 {
			out = append(out,
				busCase{b.name, b.prob * (1 - prw), b.duration},
				busCase{b.name + "+reqwb", b.prob * prw, b.duration + wb})
		} else {
			out = append(out, b)
		}
	}
	return out
}

// Handles exposes the measurable elements of a built net.
type Handles struct {
	Think      petri.PlaceID
	BusFree    petri.PlaceID
	Completion []petri.TransID // transitions whose combined throughput is the request rate
	BusServe   []petri.TransID // bus transactions (occupancy = utilization)
	BusQueue   []petri.PlaceID // requests waiting for the bus (marking / serve rate = wait)
}

// Build constructs the lumped (symmetric-customer) net for cfg.
func Build(cfg Config) (*petri.Net, Handles, error) {
	d, err := cfg.derive()
	if err != nil {
		return nil, Handles{}, err
	}
	if cfg.N < 1 {
		return nil, Handles{}, fmt.Errorf("gtpnmodel: N=%d < 1: %w", cfg.N, workload.ErrInvalid)
	}
	tau := d.Params.Tau
	if tau < 1 {
		return nil, Handles{}, fmt.Errorf("gtpnmodel: τ=%v < 1 cycle cannot be modeled by a geometric think loop: %w", tau, workload.ErrInvalid)
	}
	n := petri.NewNet()
	h := Handles{}

	think := n.AddPlace("think", cfg.N)
	classify := n.AddPlace("classify", 0)
	localSvc := n.AddPlace("local-svc", 0)
	qBc := n.AddPlace("bus-queue-bc", 0)
	qRr := n.AddPlace("bus-queue-rr", 0)
	busFree := n.AddPlace("bus-free", 1)
	supply := n.AddPlace("supply", 0)
	h.Think, h.BusFree = think, busFree
	h.BusQueue = []petri.PlaceID{qBc, qRr}

	// Optional memory-module pool: word writes take one token for d_mem
	// past the bus cycle; block write-backs take the whole pool.
	var memFree, memHeld petri.PlaceID
	modules := d.Timing.BlockSize
	dMem := int(math.Round(d.Timing.DMem))
	if cfg.ModelMemory {
		memFree = n.AddPlace("mem-free", modules)
		memHeld = n.AddPlace("mem-held", 0)
		memWrite := n.AddTransition("mem-write", maxInt(1, dMem), 1)
		n.AddInput(memWrite, memHeld, 1)
		n.AddOutput(memWrite, memFree, 1)
	}

	// Geometric think loop with mean τ: each cycle ends thinking with
	// probability 1/τ.
	q := 1 / tau
	thinkDone := n.AddTransition("think-done", 1, q)
	n.AddInput(thinkDone, think, 1)
	n.AddOutput(thinkDone, classify, 1)
	if q < 1 {
		thinkMore := n.AddTransition("think-more", 1, 1-q)
		n.AddInput(thinkMore, think, 1)
		n.AddOutput(thinkMore, think, 1)
	}

	// Immediate classification into the three request kinds.
	addClass := func(name string, prob float64, dst petri.PlaceID) {
		if prob <= 0 {
			return
		}
		t := n.AddTransition("classify-"+name, 0, prob)
		n.AddInput(t, classify, 1)
		n.AddOutput(t, dst, 1)
	}
	addClass("local", d.PLocal, localSvc)
	addClass("bc", d.PBc, qBc)
	addClass("rr", d.PRr, qRr)

	// Local accesses: the cache satisfies the processor in one cycle.
	tLocal := n.AddTransition("local-access", 1, 1)
	n.AddInput(tLocal, localSvc, 1)
	n.AddOutput(tLocal, think, 1)
	h.Completion = append(h.Completion, tLocal)

	// Broadcast bus transactions. With memory modeled, a write-word also
	// claims a module token and hands it to the posted mem-write stage;
	// memory-bypassing broadcasts (modification 3) do not touch the pool.
	if d.PBc > 0 {
		dur := int(math.Round(d.TBc(0)))
		if dur < 1 {
			dur = 1
		}
		serveBc := n.AddTransition("serve-bc", dur, d.PBc)
		n.AddInput(serveBc, qBc, 1)
		n.AddInput(serveBc, busFree, 1)
		n.AddOutput(serveBc, busFree, 1)
		n.AddOutput(serveBc, supply, 1)
		if cfg.ModelMemory && d.BroadcastTouchesMemory {
			n.AddInput(serveBc, memFree, 1)
			n.AddOutput(serveBc, memHeld, 1)
		}
		h.BusServe = append(h.BusServe, serveBc)
	}

	// Remote-read bus transactions, one per deterministic timing case.
	// With memory modeled, cases that write a block back (supplier update
	// or replacement) hold the whole module pool for d_mem afterwards,
	// via a dedicated posted-write stage.
	var memBlockHeld petri.PlaceID
	if cfg.ModelMemory {
		memBlockHeld = n.AddPlace("mem-block-held", 0)
		memBlockWrite := n.AddTransition("mem-block-write", maxInt(1, dMem), 1)
		n.AddInput(memBlockWrite, memBlockHeld, 1)
		n.AddOutput(memBlockWrite, memFree, modules)
	}
	if d.PRr > 0 {
		for _, bc := range rrCases(d) {
			if bc.duration < 1 {
				bc.duration = 1
			}
			t := n.AddTransition("serve-rr-"+bc.name, bc.duration, d.PRr*bc.prob)
			n.AddInput(t, qRr, 1)
			n.AddInput(t, busFree, 1)
			n.AddOutput(t, busFree, 1)
			n.AddOutput(t, supply, 1)
			if cfg.ModelMemory && (strings.Contains(bc.name, "wb") || strings.Contains(bc.name, "dirty")) {
				n.AddInput(t, memFree, modules)
				n.AddOutput(t, memBlockHeld, 1)
			}
			h.BusServe = append(h.BusServe, t)
		}
	}

	// Cache supply cycle after any bus transaction.
	tSupply := n.AddTransition("cache-supply", 1, 1)
	n.AddInput(tSupply, supply, 1)
	n.AddOutput(tSupply, think, 1)
	h.Completion = append(h.Completion, tSupply)

	return n, h, nil
}

// BuildPerProcessor constructs the exploded variant with per-processor
// think/classify/service places (the bus remains shared). Its reachability
// graph grows exponentially in N — use StateCount rather than Analyze for
// all but tiny systems.
func BuildPerProcessor(cfg Config) (*petri.Net, Handles, error) {
	d, err := cfg.derive()
	if err != nil {
		return nil, Handles{}, err
	}
	if cfg.N < 1 {
		return nil, Handles{}, fmt.Errorf("gtpnmodel: N=%d < 1: %w", cfg.N, workload.ErrInvalid)
	}
	tau := d.Params.Tau
	if tau < 1 {
		return nil, Handles{}, fmt.Errorf("gtpnmodel: τ=%v < 1 cycle cannot be modeled by a geometric think loop: %w", tau, workload.ErrInvalid)
	}
	n := petri.NewNet()
	h := Handles{}
	busFree := n.AddPlace("bus-free", 1)
	h.BusFree = busFree
	q := 1 / tau

	for i := 0; i < cfg.N; i++ {
		pfx := fmt.Sprintf("p%d-", i)
		think := n.AddPlace(pfx+"think", 1)
		classify := n.AddPlace(pfx+"classify", 0)
		localSvc := n.AddPlace(pfx+"local-svc", 0)
		qBc := n.AddPlace(pfx+"bus-queue-bc", 0)
		qRr := n.AddPlace(pfx+"bus-queue-rr", 0)
		supply := n.AddPlace(pfx+"supply", 0)
		h.BusQueue = append(h.BusQueue, qBc, qRr)
		if i == 0 {
			h.Think = think
		}

		thinkDone := n.AddTransition(pfx+"think-done", 1, q)
		n.AddInput(thinkDone, think, 1)
		n.AddOutput(thinkDone, classify, 1)
		if q < 1 {
			thinkMore := n.AddTransition(pfx+"think-more", 1, 1-q)
			n.AddInput(thinkMore, think, 1)
			n.AddOutput(thinkMore, think, 1)
		}
		addClass := func(name string, prob float64, dst petri.PlaceID) {
			if prob <= 0 {
				return
			}
			t := n.AddTransition(pfx+"classify-"+name, 0, prob)
			n.AddInput(t, classify, 1)
			n.AddOutput(t, dst, 1)
		}
		addClass("local", d.PLocal, localSvc)
		addClass("bc", d.PBc, qBc)
		addClass("rr", d.PRr, qRr)

		tLocal := n.AddTransition(pfx+"local-access", 1, 1)
		n.AddInput(tLocal, localSvc, 1)
		n.AddOutput(tLocal, think, 1)
		h.Completion = append(h.Completion, tLocal)

		if d.PBc > 0 {
			dur := int(math.Round(d.TBc(0)))
			if dur < 1 {
				dur = 1
			}
			serveBc := n.AddTransition(pfx+"serve-bc", dur, d.PBc)
			n.AddInput(serveBc, qBc, 1)
			n.AddInput(serveBc, busFree, 1)
			n.AddOutput(serveBc, busFree, 1)
			n.AddOutput(serveBc, supply, 1)
			h.BusServe = append(h.BusServe, serveBc)
		}
		if d.PRr > 0 {
			for _, bc := range rrCases(d) {
				if bc.duration < 1 {
					bc.duration = 1
				}
				t := n.AddTransition(pfx+"serve-rr-"+bc.name, bc.duration, d.PRr*bc.prob)
				n.AddInput(t, qRr, 1)
				n.AddInput(t, busFree, 1)
				n.AddOutput(t, busFree, 1)
				n.AddOutput(t, supply, 1)
				h.BusServe = append(h.BusServe, t)
			}
		}
		tSupply := n.AddTransition(pfx+"cache-supply", 1, 1)
		n.AddInput(tSupply, supply, 1)
		n.AddOutput(tSupply, think, 1)
		h.Completion = append(h.Completion, tSupply)
	}
	return n, h, nil
}

// Result holds detailed-model outputs in the same units as mva.Result.
type Result struct {
	N       int
	Mods    protocol.ModSet
	States  int
	R       float64 // mean time between memory requests per processor
	Speedup float64
	UBus    float64
	WBus    float64 // mean bus wait per bus request, by Little's law
}

// String renders the headline metrics.
func (r Result) String() string {
	return fmt.Sprintf("%v N=%d (GTPN, %d states): speedup=%.3f R=%.3f U_bus=%.3f",
		r.Mods, r.N, r.States, r.Speedup, r.R, r.UBus)
}

// Solve builds the lumped net and computes speedup, R and bus utilization
// from the steady-state analysis.
func Solve(cfg Config, opts petri.Options) (Result, error) {
	return SolveContext(context.Background(), cfg, opts)
}

// SolveContext is Solve with cancellation: the reachability analysis checks
// ctx periodically and returns ctx.Err() (wrapped) when it fires.
func SolveContext(ctx context.Context, cfg Config, opts petri.Options) (Result, error) {
	n, h, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	ar, err := n.AnalyzeContext(ctx, opts)
	if err != nil {
		return Result{}, err
	}
	d, err := cfg.derive()
	if err != nil {
		return Result{}, err
	}
	var x float64
	for _, t := range h.Completion {
		x += ar.Throughput[t]
	}
	if x <= 0 {
		return Result{}, fmt.Errorf("gtpnmodel: zero completion rate")
	}
	var uBus, xBus, qBus float64
	for _, t := range h.BusServe {
		uBus += ar.TimeAvgInFlight[t]
		xBus += ar.Throughput[t]
	}
	for _, p := range h.BusQueue {
		qBus += ar.TimeAvgMarking[p]
	}
	res := Result{
		N:       cfg.N,
		Mods:    cfg.Mods,
		States:  ar.States,
		R:       float64(cfg.N) / x,
		UBus:    uBus,
		Speedup: x * (d.Params.Tau + d.Timing.TSupply),
	}
	if xBus > 0 {
		res.WBus = qBus / xBus
	}
	return res, nil
}

// StateCount returns the reachability-graph size of the chosen variant
// without solving it.
func StateCount(cfg Config, perProcessor bool, opts petri.Options) (int, error) {
	return StateCountContext(context.Background(), cfg, perProcessor, opts)
}

// StateCountContext is StateCount with cancellation.
func StateCountContext(ctx context.Context, cfg Config, perProcessor bool, opts petri.Options) (int, error) {
	var n *petri.Net
	var err error
	if perProcessor {
		n, _, err = BuildPerProcessor(cfg)
	} else {
		n, _, err = Build(cfg)
	}
	if err != nil {
		return 0, err
	}
	return n.StateCountContext(ctx, opts)
}
