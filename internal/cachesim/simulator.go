package cachesim

import (
	"fmt"
	"math"

	"snoopmva/internal/protocol"
	"snoopmva/internal/sim"
	"snoopmva/internal/stats"
	"snoopmva/internal/workload"
)

type procPhase int

const (
	phaseThink procPhase = iota
	phaseWaitCache
	phaseLocal
	phaseWaitBus
	phaseSupply
)

// request is one memory reference in flight.
type request struct {
	proc    int
	class   workload.Class
	isWrite bool
	block   int32
	victim  int32 // candidate eviction on a miss, -1 if none
	issued  int64 // drawn: response times count from here
	queued  int64 // joined the bus queue: bus waits count from here
}

type processor struct {
	phase   procPhase
	readyAt int64
	req     request
}

// pendingResp is a deferred split-transaction response: the memory data
// for processor proc becomes available at readyAt and will occupy the bus
// for duration cycles.
type pendingResp struct {
	proc     int
	readyAt  int64
	duration int64
}

// Simulator is one configured run. Construct with New, run with Run.
type Simulator struct {
	cfg Config
	par parCache
	tm  timingInts

	rng     *sim.RNG
	procRng []*sim.RNG

	// Per-block, per-cache arrays, contiguous: entry bid*N + c is block bid
	// in cache c. states is the coherence state; pos is the block's index
	// in the cache's valid list, -1 when invalid.
	states []protocol.State
	pos    []int32
	// valid[cache][class] lists the block ids valid in that cache.
	valid [][3][]int32

	procs          []processor
	busQueue       []request
	respQueue      []pendingResp
	busBusy        bool
	busEnd         int64
	busReq         request
	busNoComplete  bool
	memBusyUntil   []int64
	cacheBusyUntil []int64

	cycle int64

	checkInvariants bool

	// measurement
	measuring     bool
	completions   int64
	busBusyCycles int64
	memBusyCycles int64
	queueLenSum   int64
	busWaitSum    int64
	busServed     int64
	obs           observedCounters
	respSummary   [3]stats.Summary
	respReservoir [3][]float64
	respSeen      [3]int64
}

// parCache caches the per-class generation probabilities.
type parCache struct {
	tau      float64
	think    sim.Geometric // think time: geometric with mean τ
	pClass   []float64     // weights for Choose
	readProb [3]float64
	hitRate  [3]float64
}

type timingInts struct {
	tSupply, tWrite, tInval, dMem, tBlock int64
	modules                               int
	memSupply                             int64 // dMem + tBlock
}

type observedCounters struct {
	workload.Counts
	invals     int64
	writebacks int64
	updates    int64
	writeWords int64
}

// New builds a simulator for cfg.
func New(cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.params()
	if p.Tau < 1 {
		return nil, fmt.Errorf("cachesim: τ=%v < 1 cycle cannot be generated at cycle granularity: %w", p.Tau, workload.ErrInvalid)
	}
	s := &Simulator{cfg: cfg}
	s.par = parCache{
		tau:      p.Tau,
		think:    sim.NewGeometric(1 / p.Tau),
		pClass:   []float64{p.PPrivate, p.PSro, p.PSw},
		readProb: [3]float64{p.RPrivate, 1, p.RSw},
		hitRate:  [3]float64{p.HPrivate, p.HSro, p.HSw},
	}
	round := func(v float64) int64 { return int64(math.Round(v)) }
	s.tm = timingInts{
		tSupply: maxI64(1, round(cfg.Timing.TSupply)),
		tWrite:  maxI64(1, round(cfg.Timing.TWrite)),
		tInval:  maxI64(1, round(cfg.Timing.TInval)),
		dMem:    round(cfg.Timing.DMem),
		tBlock:  maxI64(1, round(cfg.Timing.TBlock)),
		modules: cfg.Timing.BlockSize,
	}
	s.tm.memSupply = s.tm.dMem + s.tm.tBlock

	s.rng = sim.NewRNG(cfg.Seed)
	s.procRng = make([]*sim.RNG, cfg.N)
	for i := range s.procRng {
		s.procRng[i] = s.rng.Split()
	}

	nblocks := workload.SWBlocks + workload.SROBlocks + workload.PrivBlocks*cfg.N
	s.states = make([]protocol.State, nblocks*cfg.N)
	s.pos = make([]int32, nblocks*cfg.N)
	for i := range s.pos {
		s.pos[i] = -1
	}
	s.valid = make([][3][]int32, cfg.N)
	s.procs = make([]processor, cfg.N)
	for i := range s.procs {
		s.procs[i].phase = phaseThink
		s.procs[i].readyAt = int64(s.par.think.Draw(s.procRng[i]))
	}
	s.memBusyUntil = make([]int64, s.tm.modules)
	s.cacheBusyUntil = make([]int64, cfg.N)
	return s, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// reservoirCap bounds the per-class response-time samples kept for
// quantile estimation.
const reservoirCap = 4096

// recordResponse tracks a completed request's response time (cycles from
// issue to completion) for its class, with reservoir sampling for
// quantiles.
func (s *Simulator) recordResponse(cl workload.Class, resp float64) {
	s.respSummary[cl].Add(resp)
	s.respSeen[cl]++
	res := s.respReservoir[cl]
	if len(res) < reservoirCap {
		s.respReservoir[cl] = append(res, resp)
		return
	}
	// Vitter's algorithm R.
	j := s.rng.Intn(int(s.respSeen[cl]))
	if j < reservoirCap {
		res[j] = resp
	}
}

// SetInvariantChecks enables per-transaction coherence invariant checking
// (used by the test suite; slows the run down).
func (s *Simulator) SetInvariantChecks(on bool) { s.checkInvariants = on }

// classOf returns the class of block bid: the pools are laid out
// shared-writable, then shared read-only, then private per processor.
func classOf(bid int32) workload.Class {
	switch {
	case bid < workload.SWBlocks:
		return workload.SW
	case bid < workload.SWBlocks+workload.SROBlocks:
		return workload.SRO
	default:
		return workload.Private
	}
}

// blockStates returns block bid's state in every cache, indexed by cache.
func (s *Simulator) blockStates(bid int32) []protocol.State {
	i := int(bid) * s.cfg.N
	return s.states[i : i+s.cfg.N : i+s.cfg.N]
}

// setState updates a block's state in one cache, maintaining the valid
// lists.
func (s *Simulator) setState(bid int32, cache int, next protocol.State) {
	n := s.cfg.N
	at := int(bid)*n + cache
	cur := s.states[at]
	if cur.Valid() == next.Valid() {
		s.states[at] = next
		return
	}
	cl := classOf(bid)
	lst := s.valid[cache][cl]
	if next.Valid() {
		// insert
		s.pos[at] = int32(len(lst))
		s.valid[cache][cl] = append(lst, bid)
	} else {
		// remove (swap with last)
		i := s.pos[at]
		last := lst[len(lst)-1]
		lst[i] = last
		s.pos[int(last)*n+cache] = i
		s.valid[cache][cl] = lst[:len(lst)-1]
		s.pos[at] = -1
	}
	s.states[at] = next
}

// pickValid returns a random valid block of class cl in cache c, or -1.
func (s *Simulator) pickValid(c int, cl workload.Class, rng *sim.RNG) int32 {
	lst := s.valid[c][cl]
	if len(lst) == 0 {
		return -1
	}
	return lst[rng.Intn(len(lst))]
}

// pickMissTarget returns a random block of class cl NOT valid in cache c.
func (s *Simulator) pickMissTarget(c int, cl workload.Class, rng *sim.RNG) int32 {
	var lo int
	switch cl {
	case workload.SRO:
		lo = workload.SWBlocks
	case workload.Private:
		lo = workload.SWBlocks + workload.SROBlocks + c*workload.PrivBlocks
	}
	n := cl.Blocks()
	// Rejection sampling: pools are much larger than residency capacities,
	// so a handful of tries suffices; fall back to a linear scan.
	for try := 0; try < 8; try++ {
		bid := int32(lo + rng.Intn(n))
		if !s.states[int(bid)*s.cfg.N+c].Valid() {
			return bid
		}
	}
	for i := 0; i < n; i++ {
		bid := int32(lo + i)
		if !s.states[int(bid)*s.cfg.N+c].Valid() {
			return bid
		}
	}
	return -1 // entire pool resident (pathological config)
}
