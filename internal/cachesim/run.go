package cachesim

import (
	"context"
	"fmt"
	"math"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/protocol"
	"snoopmva/internal/stats"
	"snoopmva/internal/workload"
)

// ctxCheckInterval is how many simulated cycles run between cancellation
// checks (one atomic load plus a comparison per check).
const ctxCheckInterval = 10_000

// generate draws the next memory reference for processor p and stores it in
// the processor's pending request.
func (s *Simulator) generate(p int) {
	rng := s.procRng[p]
	cl := workload.Class(rng.Choose(s.par.pClass))
	isWrite := !rng.Bernoulli(s.par.readProb[cl])
	wantHit := rng.Bernoulli(s.par.hitRate[cl])
	var bid int32 = -1
	if wantHit {
		bid = s.pickValid(p, cl, rng)
	}
	if bid < 0 {
		bid = s.pickMissTarget(p, cl, rng)
		if bid < 0 {
			// Degenerate pool: fall back to any block of the class.
			bid = s.pickValid(p, cl, rng)
		}
	}
	s.procs[p].req = request{
		proc:    p,
		class:   cl,
		isWrite: isWrite,
		block:   bid,
		victim:  -1,
		issued:  s.cycle,
	}
	if s.measuring {
		s.obs.Refs[cl]++
		if !isWrite {
			s.obs.Reads[cl]++
		}
	}
}

// dispatch routes processor p's pending request once its cache is free:
// locally satisfied requests finish in one cycle; bus requests pick a
// victim (for misses) and join the FCFS queue.
func (s *Simulator) dispatch(p int) {
	pr := &s.procs[p]
	req := &pr.req
	state := s.states[int(req.block)*s.cfg.N+p]

	var out protocol.ProcOutcome
	if req.isWrite {
		out = s.cfg.Protocol.OnProcWrite(state)
	} else {
		out = s.cfg.Protocol.OnProcRead(state)
	}
	if s.measuring {
		if out.Hit {
			s.obs.Hits[req.class]++
			if req.isWrite {
				s.obs.WriteHits[req.class]++
				if state.Wback() {
					s.obs.DirtyWriteHits[req.class]++
				}
			}
		}
	}
	if out.Op == protocol.BusNone {
		s.setState(req.block, p, out.Next)
		pr.phase = phaseLocal
		pr.readyAt = s.cycle + s.tm.tSupply
		return
	}
	if out.Op == protocol.BusRead || out.Op == protocol.BusReadMod {
		// Miss: pick an eviction victim now if the cache is at capacity.
		if len(s.valid[p][req.class]) >= req.class.Capacity() {
			req.victim = s.pickValid(p, req.class, s.procRng[p])
		}
	}
	pr.phase = phaseWaitBus
	req.queued = s.cycle
	s.busQueue = append(s.busQueue, *req)
}

// startTransaction begins serving the request at the head of the bus
// queue. All coherence state changes are applied atomically at transaction
// start; the bus is held for the computed duration.
func (s *Simulator) startTransaction() {
	req := s.busQueue[0]
	// Shift down rather than reslice, so appends reuse the backing array.
	s.busQueue = s.busQueue[:copy(s.busQueue, s.busQueue[1:])]
	p := req.proc
	state := s.states[int(req.block)*s.cfg.N+p]
	proto := s.cfg.Protocol

	if s.measuring {
		s.busWaitSum += s.cycle - req.queued
		s.busServed++
	}

	// Re-evaluate against the current state: a queued write hit may have
	// been invalidated (now a miss) or upgraded by an update broadcast.
	var out protocol.ProcOutcome
	if req.isWrite {
		out = proto.OnProcWrite(state)
	} else {
		out = proto.OnProcRead(state)
	}
	if out.Op == protocol.BusNone {
		// Resolved without a transaction after all; release the bus and
		// let the requester complete.
		s.setState(req.block, p, out.Next)
		s.procs[p].phase = phaseSupply
		s.procs[p].readyAt = s.cycle + s.tm.tSupply
		return
	}
	if (out.Op == protocol.BusRead || out.Op == protocol.BusReadMod) && req.victim < 0 &&
		len(s.valid[p][req.class]) >= req.class.Capacity() {
		req.victim = s.pickValid(p, req.class, s.procRng[p])
	}

	var duration int64
	deferred := false
	switch out.Op {
	case protocol.BusRead, protocol.BusReadMod:
		duration, deferred = s.serveMiss(req, out.Op)
	case protocol.BusWriteWord:
		duration = s.serveBroadcast(req, out, true)
		if s.measuring {
			s.obs.writeWords++
		}
	case protocol.BusInvalidate:
		duration = s.serveBroadcast(req, out, false)
		if s.measuring {
			s.obs.invals++
		}
	case protocol.BusUpdateWrite:
		duration = s.serveBroadcast(req, out, !proto.Mods.Has(protocol.Mod3) || proto.WriteThroughBase)
		if s.measuring {
			s.obs.updates++
		}
	default:
		panic(fmt.Sprintf("cachesim: internal invariant violated: unexpected bus op %v", out.Op))
	}

	s.busBusy = true
	s.busEnd = s.cycle + duration
	s.busReq = req
	s.busNoComplete = deferred
	if s.checkInvariants {
		if err := s.CheckInvariants(); err != nil {
			panic("cachesim: internal invariant violated: " + err.Error())
		}
	}
}

// serveMiss performs a read / read-mod transaction and returns its bus
// occupancy plus whether the data delivery was deferred to a
// split-transaction response phase.
func (s *Simulator) serveMiss(req request, op protocol.BusOp) (int64, bool) {
	p := req.proc
	states := s.blockStates(req.block)
	proto := s.cfg.Protocol

	// Snoop: find sharers and the (unique) dirty holder.
	shared := false
	dirtyHolder := -1
	for c, st := range states {
		if c == p || !st.Valid() {
			continue
		}
		shared = true
		if st.Wback() {
			dirtyHolder = c
		}
	}
	duration := int64(1) // address cycle
	deferred := false
	switch {
	case shared:
		duration += s.tm.tBlock // cache-to-cache supply
	case s.cfg.SplitTransactions:
		// Split transaction: the bus is released during the memory
		// latency; the response phase is scheduled separately.
		deferred = true
	default:
		duration += s.tm.memSupply // memory latency + transfer
	}
	if s.measuring {
		s.obs.Misses[req.class]++
		if shared {
			s.obs.HolderMisses[req.class]++
		}
		if dirtyHolder >= 0 {
			s.obs.DirtyHolderMisses[req.class]++
		}
	}

	// Apply snoop transitions.
	for c := range states {
		if c == p || !states[c].Valid() {
			continue
		}
		so := proto.OnSnoop(states[c], op)
		s.setState(req.block, c, so.Next)
		if c == dirtyHolder && so.WriteMemory {
			duration += s.tm.tBlock // supplier's memory update (Write-Once interrupt)
			s.occupyMemoryBlock(s.cycle + duration)
			if s.measuring {
				s.obs.writebacks++
			}
		}
		// Snooping occupies the remote cache.
		busyUntil := s.cycle + 1
		if so.WholeTransaction || so.SupplyData {
			busyUntil = s.cycle + duration
		}
		if busyUntil > s.cacheBusyUntil[c] {
			s.cacheBusyUntil[c] = busyUntil
		}
	}

	// Requester's replacement write-back, if the victim is still resident
	// and dirty.
	if req.victim >= 0 {
		if vs := s.states[int(req.victim)*s.cfg.N+p]; vs.Valid() {
			if ro := proto.OnReplace(vs); ro.Op == protocol.BusWriteBlock {
				duration += s.tm.tBlock
				s.occupyMemoryBlock(s.cycle + duration)
				if s.measuring {
					s.obs.writebacks++
					s.obs.DirtyEvictions[req.class]++
				}
			}
			if s.measuring {
				s.obs.Evictions[req.class]++
			}
			s.setState(req.victim, p, protocol.Invalid)
		}
	}

	// Install the fill state.
	s.setState(req.block, p, proto.FillState(op, shared))
	if deferred {
		s.respQueue = append(s.respQueue, pendingResp{
			proc:     p,
			readyAt:  s.cycle + duration + s.tm.dMem,
			duration: s.tm.tBlock,
		})
	}
	return duration, deferred
}

// serveBroadcast performs a write-word / invalidate / update transaction.
func (s *Simulator) serveBroadcast(req request, out protocol.ProcOutcome, touchesMemory bool) int64 {
	p := req.proc
	states := s.blockStates(req.block)
	proto := s.cfg.Protocol

	var duration int64
	switch out.Op {
	case protocol.BusInvalidate:
		duration = s.tm.tInval
	default:
		duration = s.tm.tWrite
	}
	if touchesMemory {
		// Wait for the word's memory module, then occupy it.
		m := s.procRng[p].Intn(s.tm.modules)
		if s.memBusyUntil[m] > s.cycle {
			duration += s.memBusyUntil[m] - s.cycle
		}
		s.memBusyUntil[m] = s.cycle + duration + s.tm.dMem
	}
	for c := range states {
		if c == p || !states[c].Valid() {
			continue
		}
		so := proto.OnSnoop(states[c], out.Op)
		s.setState(req.block, c, so.Next)
		busyUntil := s.cycle + 1
		if so.WholeTransaction {
			busyUntil = s.cycle + duration
		}
		if busyUntil > s.cacheBusyUntil[c] {
			s.cacheBusyUntil[c] = busyUntil
		}
	}
	s.setState(req.block, p, out.Next)
	return duration
}

// occupyMemoryBlock marks all interleaved modules busy for a block write
// completing at busEnd.
func (s *Simulator) occupyMemoryBlock(busEnd int64) {
	until := busEnd + s.tm.dMem
	for m := range s.memBusyUntil {
		if until > s.memBusyUntil[m] {
			s.memBusyUntil[m] = until
		}
	}
}

// complete finishes processor p's request and returns it to thinking.
func (s *Simulator) complete(p int) {
	if s.measuring {
		s.completions++
		req := &s.procs[p].req
		s.recordResponse(req.class, float64(s.cycle-req.issued))
	}
	pr := &s.procs[p]
	pr.phase = phaseThink
	pr.readyAt = s.cycle + int64(s.par.think.Draw(s.procRng[p]))
}

// step advances the simulation by one cycle.
func (s *Simulator) step() {
	// 1. Complete the bus transaction ending now. Split-transaction
	// request phases leave the requester waiting for the response phase.
	if s.busBusy && s.cycle >= s.busEnd {
		s.busBusy = false
		if !s.busNoComplete {
			p := s.busReq.proc
			s.procs[p].phase = phaseSupply
			s.procs[p].readyAt = s.cycle + s.tm.tSupply
		}
		s.busNoComplete = false
	}
	// 2. Advance processors.
	for p := range s.procs {
		pr := &s.procs[p]
		switch pr.phase {
		case phaseThink:
			if s.cycle >= pr.readyAt {
				s.generate(p)
				if s.cacheBusyUntil[p] > s.cycle {
					pr.phase = phaseWaitCache
				} else {
					s.dispatch(p)
				}
			}
		case phaseWaitCache:
			if s.cacheBusyUntil[p] <= s.cycle {
				s.dispatch(p)
			}
		case phaseLocal, phaseSupply:
			if s.cycle >= pr.readyAt {
				s.complete(p)
				// The new think time may be zero-length only if τ < 1,
				// which Validate excludes; nothing more to do this cycle.
			}
		case phaseWaitBus:
			// Bus progress is handled above.
		}
	}
	// 3. Start the next bus transaction — after processor advancement so a
	// request issued this cycle can begin service this cycle when the bus
	// is free (no phantom one-cycle wait). Ready split-transaction
	// responses take priority over new requests.
	if !s.busBusy {
		if len(s.respQueue) > 0 && s.respQueue[0].readyAt <= s.cycle {
			resp := s.respQueue[0]
			s.respQueue = s.respQueue[:copy(s.respQueue, s.respQueue[1:])]
			s.busBusy = true
			s.busEnd = s.cycle + resp.duration
			s.busReq = request{proc: resp.proc, issued: s.cycle}
			s.busNoComplete = false
		} else if len(s.busQueue) > 0 {
			s.startTransaction()
		}
	}
	// 4. Measurement accounting.
	if s.measuring {
		if s.busBusy {
			s.busBusyCycles++
		}
		s.queueLenSum += int64(len(s.busQueue))
		for _, until := range s.memBusyUntil {
			if until > s.cycle {
				s.memBusyCycles++
			}
		}
	}
	s.cycle++
}

// Run executes the configured warmup and measurement windows and returns
// the collected results.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// checkpoint is the per-~10k-cycle cancellation and fault-injection point
// of the simulation loops.
func (s *Simulator) checkpoint(ctx context.Context) error {
	if h := faultinject.Hooks(); h != nil {
		if h.SimSlowCycle != nil {
			h.SimSlowCycle(s.cycle)
		}
		if h.SimFault != nil {
			if err := h.SimFault(s.cycle); err != nil {
				return fmt.Errorf("cachesim: injected fault at cycle %d (N=%d): %w", s.cycle, s.cfg.N, err)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cachesim: run interrupted at cycle %d (N=%d): %w", s.cycle, s.cfg.N, err)
	}
	return nil
}

// RunContext is Run with cancellation: the cycle loops check ctx every
// ~10k simulated cycles and return ctx.Err() (wrapped) when it fires.
//
// With Config.RelPrecision set, the measurement window is a cap: the
// window is cut into quarter-batches of MeasureCycles/Batches/4 cycles,
// and once at least a third of the cap is measured (20 quarter-batches or
// more) the run stops at the first quarter-batch boundary where the 95 %
// Student-t interval of the quarter-batch speedups is within RelPrecision
// of their mean: Law and Kelton's relative-precision procedure. A stopped
// run reports every measure over the cycles it measured and its interval
// from the quarter-batches; a run that reaches the cap reports the
// interval of its Batches batches, as a fixed-length run does.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	cfg := s.cfg
	for s.cycle < cfg.WarmupCycles {
		if s.cycle%ctxCheckInterval == 0 {
			if err := s.checkpoint(ctx); err != nil {
				return nil, err
			}
		}
		s.step()
	}
	s.measuring = true
	start := s.cycle
	end := start + cfg.MeasureCycles
	batchCycles := maxI64(1, cfg.MeasureCycles/Batches)
	quarterCycles := maxI64(1, batchCycles/4)
	tau := s.par.tau
	tSup := float64(s.tm.tSupply)
	// spanSpeedup is the speedup over compl completions in cycles cycles.
	spanSpeedup := func(cycles, compl int64) float64 {
		if compl == 0 {
			return 0
		}
		r := float64(cfg.N) * float64(cycles) / float64(compl)
		return float64(cfg.N) * (tau + tSup) / r
	}
	var batches, quarters stats.Summary
	batchStart, batchCompl := start, int64(0)
	quarterStart, quarterCompl := start, int64(0)
	stopped := false
	for s.cycle < end && !stopped {
		if s.cycle%ctxCheckInterval == 0 {
			if err := s.checkpoint(ctx); err != nil {
				return nil, err
			}
		}
		s.step()
		if s.cycle-batchStart >= batchCycles {
			// An empty batch adds no sample; an empty quarter-batch adds a
			// zero, so a span too short to hold a completion cannot look
			// precise.
			if compl := s.completions - batchCompl; compl > 0 {
				batches.Add(spanSpeedup(s.cycle-batchStart, compl))
			}
			batchStart, batchCompl = s.cycle, s.completions
		}
		if cfg.RelPrecision > 0 && s.cycle-quarterStart >= quarterCycles {
			quarters.Add(spanSpeedup(s.cycle-quarterStart, s.completions-quarterCompl))
			quarterStart, quarterCompl = s.cycle, s.completions
			stopped = s.cycle < end && 3*(s.cycle-start) >= cfg.MeasureCycles &&
				precise(&quarters, cfg.RelPrecision)
		}
	}
	measured := s.cycle - start
	if s.completions == 0 {
		return nil, fmt.Errorf("cachesim: no requests completed in %d cycles", measured)
	}
	r := float64(cfg.N) * float64(measured) / float64(s.completions)
	res := &Result{
		N:           cfg.N,
		Protocol:    cfg.Protocol,
		Seed:        cfg.Seed,
		Cycles:      measured,
		Completions: s.completions,
		R:           r,
		Speedup:     float64(cfg.N) * (tau + tSup) / r,
		UBus:        float64(s.busBusyCycles) / float64(measured),
		UMem:        float64(s.memBusyCycles) / float64(measured) / float64(s.tm.modules),
		MeanQueue:   float64(s.queueLenSum) / float64(measured),
	}
	if s.busServed > 0 {
		res.MeanBusWait = float64(s.busWaitSum) / float64(s.busServed)
	}
	for cl := range res.MeanResponse {
		res.MeanResponse[cl] = s.respSummary[cl].Mean()
		res.MaxResponse[cl] = s.respSummary[cl].Max()
		if p95, err := stats.Quantile(s.respReservoir[cl], 0.95); err == nil {
			res.P95Response[cl] = p95
		}
	}
	if stopped { // the interval of the quarter-batches that met the target
		batches = quarters
	}
	if iv, err := batches.ConfidenceInterval(0.95); err == nil {
		res.SpeedupCI = iv
	}
	res.Observed = s.observed()
	return res, nil
}

// precise reports whether the 95 % interval of sm's mean is within target
// of it, relative to the mean.
func precise(sm *stats.Summary, target float64) bool {
	// The t quantile is a costly bisection, and it exceeds 1.96 at every
	// degree of freedom: an interval too wide at 1.96 is too wide.
	if 1.96*sm.StdErr() > target*math.Abs(sm.Mean()) {
		return false
	}
	iv, err := sm.ConfidenceInterval(0.95)
	return err == nil && iv.RelHalfWidth() <= target
}

func (s *Simulator) observed() Observed {
	m := s.obs.Misses
	return Observed{
		Workload:      s.obs.Params(s.par.tau),
		Misses:        m[workload.Private] + m[workload.SRO] + m[workload.SW],
		Invalidations: s.obs.invals,
		WriteWords:    s.obs.writeWords,
		Updates:       s.obs.updates,
		Writebacks:    s.obs.writebacks,
	}
}

// CheckInvariants verifies the global coherence invariants over all
// blocks: at most one dirty (wback) copy per block, and an exclusive copy
// is the only copy.
func (s *Simulator) CheckInvariants() error {
	for i := 0; i < len(s.states)/s.cfg.N; i++ {
		dirty, valid := 0, 0
		exclusive := false
		for _, st := range s.blockStates(int32(i)) {
			if !st.Valid() {
				continue
			}
			valid++
			if st.Wback() {
				dirty++
			}
			if st.Exclusive() {
				exclusive = true
			}
		}
		if dirty > 1 {
			return fmt.Errorf("cachesim: block %d has %d dirty copies", i, dirty)
		}
		if exclusive && valid > 1 {
			return fmt.Errorf("cachesim: block %d exclusive with %d copies", i, valid)
		}
	}
	return nil
}

// Result holds the outputs of one simulation run.
type Result struct {
	N           int
	Protocol    protocol.Protocol
	Seed        uint64
	Cycles      int64
	Completions int64
	R           float64
	Speedup     float64
	SpeedupCI   stats.Interval
	UBus        float64
	UMem        float64
	MeanQueue   float64
	MeanBusWait float64
	// Per-class response times in cycles from issue to completion
	// (private, sro, sw): mean, 95th percentile (reservoir-sampled) and
	// maximum observed.
	MeanResponse [3]float64
	P95Response  [3]float64
	MaxResponse  [3]float64
	Observed     Observed
}

// Observed reports what the measurement window saw: the model inputs the
// run measured, and its bus-operation counts.
type Observed struct {
	// Workload holds the basic parameters as measured, per class. The
	// stream mix and read ratios are drawn from the configured values;
	// the hit rates (which invalidations push below their targets),
	// amod, csupply, wb_csupply and rep are emergent. Tau is the
	// configured τ.
	Workload workload.Params

	Misses        int64
	Invalidations int64
	WriteWords    int64
	Updates       int64
	Writebacks    int64
}

// String renders the headline metrics.
func (r *Result) String() string {
	return fmt.Sprintf("%s N=%d seed=%d: speedup=%.3f (%v) U_bus=%.3f U_mem=%.3f",
		r.Protocol, r.N, r.Seed, r.Speedup, r.SpeedupCI, r.UBus, r.UMem)
}

// Run is the one-call convenience: build a simulator for cfg and run it.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
