package petri

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/markov"
)

// ErrStateExplosion indicates the reachability graph exceeded the MaxStates
// budget — the failure mode that limits the detailed GTPN model to small
// systems (Section 3.2 of the paper) and that the graceful-degradation
// ladder falls back from.
var ErrStateExplosion = errors.New("petri: state space exceeded budget")

// ctxCheckInterval is how many BFS state expansions run between
// cancellation checks. Expansions are comparatively expensive (each runs a
// zero-time resolution), so the interval is short to keep worst-case
// cancellation latency well under 100ms.
const ctxCheckInterval = 128

// explosionErr builds the typed state-explosion error.
func explosionErr(states, max int) error {
	return fmt.Errorf("%w: %d states reached (MaxStates=%d)", ErrStateExplosion, states, max)
}

// checkBudget enforces cancellation, the state budget, and the injected
// explosion fault at one BFS checkpoint. processed counts expanded states
// (for the periodic ctx check); total is the current graph size.
func checkBudget(ctx context.Context, processed, total, max int) error {
	if processed%ctxCheckInterval == 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("petri: reachability analysis interrupted at %d states: %w", total, err)
		}
	}
	if h := faultinject.Hooks(); h != nil && h.PetriExplode != nil && h.PetriExplode(total) {
		return explosionErr(total, max)
	}
	if total > max {
		return explosionErr(total, max)
	}
	return nil
}

// inflight is one scheduled firing: transition t completes after remaining
// cycles.
type inflight struct {
	t         TransID
	remaining int
}

// state is a stable extended state: a marking plus the multiset of
// in-flight firings (sorted canonically), with no enabled transition.
type state struct {
	marking []int
	flights []inflight // sorted by (t, remaining)
}

// appendKey appends the compact encoding of s to buf: every token count,
// then every flight's transition and remaining time, as uvarints. The
// marking has one entry per place and uvarints are self-delimiting, so
// two states are equal exactly when their keys are.
func (s state) appendKey(buf []byte) []byte {
	for _, m := range s.marking {
		buf = binary.AppendUvarint(buf, uint64(m))
	}
	for _, f := range s.flights {
		buf = binary.AppendUvarint(buf, uint64(f.t))
		buf = binary.AppendUvarint(buf, uint64(f.remaining))
	}
	return buf
}

func sortFlights(f []inflight) {
	slices.SortFunc(f, func(a, b inflight) int {
		if a.t != b.t {
			return int(a.t - b.t)
		}
		return a.remaining - b.remaining
	})
}

// outcome is one stable state reachable from a resolution, with its path
// probability and the number of firings of each transition along the way.
type outcome struct {
	id    int // the stable state: an index into resolver.stable
	prob  float64
	fires []float64
}

// Options controls Analyze.
type Options struct {
	// MaxStates bounds the reachability graph. Zero means 200000.
	MaxStates int
	// MaxResolutionDepth bounds zero-time firing chains, guarding against
	// Zeno nets. Zero means 10000.
	MaxResolutionDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 200000
	}
	if o.MaxResolutionDepth == 0 {
		o.MaxResolutionDepth = 10000
	}
	return o
}

// Result holds the steady-state analysis outputs.
type Result struct {
	// States is the number of stable states in the reachability graph —
	// the quantity that explodes with modeled system size.
	States int
	// MeanCycle is the expected sojourn per embedded step (cycles).
	MeanCycle float64
	// TimeAvgMarking[p] is the long-run time-average token count of place p.
	TimeAvgMarking []float64
	// TimeAvgInFlight[t] is the long-run time-average number of in-flight
	// firings of transition t (tokens "inside" the transition).
	TimeAvgInFlight []float64
	// Throughput[t] is the long-run firing rate of transition t per cycle.
	Throughput []float64
}

func (n *Net) isEnabled(ti int, m []int) bool {
	for _, a := range n.trans[ti].in {
		if m[a.Place] < a.Weight {
			return false
		}
	}
	return true
}

// resolver expands zero-time firing sequences into distributions over
// stable states. Intermediate states are memoized: the outcome distribution
// from a given raw state does not depend on how it was reached, and the
// memo collapses the combinatorial explosion of firing orderings (distinct
// interleavings of independent firings meet at the same intermediate
// states).
type resolver struct {
	n    *Net
	memo map[string][]outcome
	// stable lists every stable state in the order resolutions first reach
	// it. Each is memoized as its own one-outcome resolution, so it is
	// encoded and stored once, and its index is its id in the graph.
	stable []state
	ctx    context.Context
	// calls counts resolve entries for the periodic cancellation check: a
	// single cold-memo resolution can expand thousands of intermediate
	// states, far longer than the BFS-level check granularity.
	calls    int
	maxDepth int
	buf      []byte    // key scratch: a memo hit encodes without allocating
	cs       []contrib // merge scratch, a stack shared by nested resolutions
	zero     []float64 // the all-zero firing counts every leaf outcome shares
	// scratch[d] is where resolutions at depth d build their successors:
	// one that hits the memo, about half of them, is never copied.
	scratch []state
}

func newResolver(ctx context.Context, n *Net, maxDepth int) *resolver {
	return &resolver{n: n, memo: map[string][]outcome{}, ctx: ctx, maxDepth: maxDepth, zero: make([]float64, len(n.trans))}
}

// contrib is one weighted stable outcome of firing transition ti.
type contrib struct {
	o  *outcome
	w  float64
	ti int
}

// resolve returns the stable-state distribution reachable from raw in zero
// time, with expected firing counts per transition conditioned on each
// outcome, sorted by state id. raw is sorted in place and copied only if
// it is a new stable state. The returned slices are shared via the memo and
// must not be mutated by callers.
func (r *resolver) resolve(raw state, depth int) ([]outcome, error) {
	r.calls++
	if r.calls%64 == 0 {
		if err := r.ctx.Err(); err != nil {
			return nil, fmt.Errorf("petri: zero-time resolution interrupted: %w", err)
		}
	}
	sortFlights(raw.flights)
	r.buf = raw.appendKey(r.buf[:0])
	if out, ok := r.memo[string(r.buf)]; ok {
		return out, nil
	}
	key := string(r.buf)
	if depth >= r.maxDepth {
		return nil, errors.New("petri: zero-time firing chain exceeded depth limit (Zeno net?)")
	}
	n := r.n
	var enBuf [16]int
	en := enBuf[:0]
	var total float64
	anyImmediate := false
	for i := range n.trans {
		if n.isEnabled(i, raw.marking) {
			if n.trans[i].duration == 0 && !anyImmediate {
				// GSPN semantics: immediate transitions have strict
				// priority over timed ones — restart collection keeping
				// immediates only.
				anyImmediate = true
				en = en[:0]
				total = 0
			}
			if anyImmediate && n.trans[i].duration != 0 {
				continue
			}
			en = append(en, i)
			total += n.trans[i].weight
		}
	}
	if len(en) == 0 {
		out := []outcome{{id: len(r.stable), prob: 1, fires: r.zero}}
		r.stable = append(r.stable, state{marking: slices.Clone(raw.marking), flights: slices.Clone(raw.flights)})
		r.memo[key] = out
		return out, nil
	}
	base := len(r.cs)
	if depth == len(r.scratch) {
		r.scratch = append(r.scratch, state{marking: make([]int, len(raw.marking))})
	}
	for _, ti := range en {
		p := n.trans[ti].weight / total
		next := &r.scratch[depth]
		copy(next.marking, raw.marking)
		next.flights = append(next.flights[:0], raw.flights...)
		for _, a := range n.trans[ti].in {
			next.marking[a.Place] -= a.Weight
		}
		if n.trans[ti].duration == 0 {
			for _, a := range n.trans[ti].out {
				next.marking[a.Place] += a.Weight
			}
		} else {
			next.flights = append(next.flights, inflight{t: TransID(ti), remaining: n.trans[ti].duration})
		}
		sub, err := r.resolve(*next, depth+1)
		if err != nil {
			return nil, err
		}
		for i := range sub {
			r.cs = append(r.cs, contrib{o: &sub[i], w: p * sub[i].prob, ti: ti})
		}
	}
	// Merge contributions that reach the same stable state. Each nested
	// resolution popped what it pushed, so this one's are r.cs[base:]. The
	// stable sort keeps each state's contributions in firing order, which
	// also fixes the order the sums below accumulate in.
	cs := r.cs[base:]
	r.cs = r.cs[:base]
	slices.SortStableFunc(cs, func(a, b contrib) int { return a.o.id - b.o.id })
	distinct := 0
	for i := range cs {
		if i == 0 || cs[i].o.id != cs[i-1].o.id {
			distinct++
		}
	}
	nt := len(n.trans)
	out := make([]outcome, 0, distinct)
	fires := make([]float64, distinct*nt)
	for i, c := range cs {
		if i == 0 || c.o.id != cs[i-1].o.id {
			k := len(out)
			out = append(out, outcome{id: c.o.id, fires: fires[k*nt : (k+1)*nt : (k+1)*nt]})
		}
		dst := &out[len(out)-1]
		dst.prob += c.w
		for t, f := range c.o.fires {
			dst.fires[t] += c.w * f
		}
		dst.fires[c.ti] += c.w
	}
	for i := range out {
		// Normalize conditional firing counts.
		for t := range out[i].fires {
			out[i].fires[t] /= out[i].prob
		}
	}
	r.memo[key] = out
	return out, nil
}

// advance moves a stable state forward to its next event: time passes by
// the minimum remaining firing time, completed firings deposit their
// outputs. It writes the raw (possibly unstable) state into next and
// returns the sojourn.
func (n *Net) advance(next *state, st state) (int, error) {
	if len(st.flights) == 0 {
		return 0, errors.New("petri: deadlock — no enabled transitions and nothing in flight")
	}
	dt := st.flights[0].remaining
	for _, f := range st.flights {
		if f.remaining < dt {
			dt = f.remaining
		}
	}
	copy(next.marking, st.marking)
	next.flights = next.flights[:0]
	for _, f := range st.flights {
		if f.remaining == dt {
			for _, a := range n.trans[f.t].out {
				next.marking[a.Place] += a.Weight
			}
		} else {
			next.flights = append(next.flights, inflight{t: f.t, remaining: f.remaining - dt})
		}
	}
	return dt, nil
}

// graph is the extended reachability graph with its embedded chain. State
// ids are the resolver's discovery order, and states are expanded in id
// order, so the search yields the transition matrix row by row.
type graph struct {
	states []state
	// sojourn[id] is the time spent in state id per visit (cycles).
	sojourn []int
	// fires[id*Transitions()+t] is the expected number of firings of t on
	// the step out of id.
	fires []float64
	// rowPtr, colIdx and prob hold the embedded chain's transition matrix
	// in CSR form.
	rowPtr []int
	colIdx []int
	prob   []float64
}

// explore builds the reachability graph by BFS over stable states. With
// countOnly it records the states alone, skipping the chain. It checks ctx
// every ctxCheckInterval expanded states (and the resolver every 64
// zero-time resolutions).
func (n *Net) explore(ctx context.Context, o Options, countOnly bool) (*graph, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	init := state{marking: make([]int, len(n.places))}
	for i, p := range n.places {
		init.marking[i] = p.initial
	}
	rv := newResolver(ctx, n, o.MaxResolutionDepth)
	if _, err := rv.resolve(init, 0); err != nil {
		return nil, err
	}
	g := &graph{}
	var rows [][]outcome // rows[id]: the outcomes of leaving state id
	nnz, raw := 0, state{marking: make([]int, len(n.places))}
	for id := 0; id < len(rv.stable); id++ {
		if err := checkBudget(ctx, id+1, len(rv.stable), o.MaxStates); err != nil {
			return nil, err
		}
		dt, err := n.advance(&raw, rv.stable[id])
		if err != nil {
			return nil, fmt.Errorf("petri: state %d: %w", id, err)
		}
		outs, err := rv.resolve(raw, 0)
		if err != nil {
			return nil, err
		}
		if len(rv.stable) > o.MaxStates {
			return nil, explosionErr(len(rv.stable), o.MaxStates)
		}
		g.sojourn = append(g.sojourn, dt)
		rows = append(rows, outs)
		nnz += len(outs)
	}
	g.states = rv.stable
	if countOnly {
		return g, nil
	}
	// A resolution's outcomes are distinct states, so each row is final as
	// recorded; with the row lengths known, every array is sized once.
	nt := len(n.trans)
	g.rowPtr, g.colIdx, g.prob = make([]int, 1, len(rows)+1), make([]int, 0, nnz), make([]float64, 0, nnz)
	g.fires = make([]float64, len(rows)*nt)
	for id, outs := range rows {
		ef := g.fires[id*nt : (id+1)*nt]
		for _, oc := range outs {
			g.colIdx = append(g.colIdx, oc.id)
			g.prob = append(g.prob, oc.prob)
			for t, f := range oc.fires {
				ef[t] += oc.prob * f
			}
		}
		g.rowPtr = append(g.rowPtr, len(g.colIdx))
	}
	return g, nil
}

// measures turns the embedded chain's stationary distribution pi into the
// time-averaged semi-Markov measures.
func (n *Net) measures(g *graph, pi []float64) (*Result, error) {
	res := &Result{
		States:          len(g.states),
		TimeAvgMarking:  make([]float64, len(n.places)),
		TimeAvgInFlight: make([]float64, len(n.trans)),
		Throughput:      make([]float64, len(n.trans)),
	}
	var totalTime float64
	for id, dt := range g.sojourn {
		totalTime += pi[id] * float64(dt)
	}
	if totalTime <= 0 {
		return nil, errors.New("petri: degenerate zero total time")
	}
	res.MeanCycle = totalTime
	nt := len(n.trans)
	for id, st := range g.states {
		w := pi[id] * float64(g.sojourn[id]) / totalTime
		for p, m := range st.marking {
			res.TimeAvgMarking[p] += w * float64(m)
		}
		for _, f := range st.flights {
			res.TimeAvgInFlight[f.t] += w
		}
		for t, e := range g.fires[id*nt : (id+1)*nt] {
			res.Throughput[t] += pi[id] * e
		}
	}
	for t := range res.Throughput {
		res.Throughput[t] /= totalTime
	}
	return res, nil
}

// Analyze builds the extended reachability graph and computes steady-state
// measures. The net must be structurally valid and its reachability graph
// irreducible (true for the cyclic protocol models built on this engine).
func (n *Net) Analyze(opts Options) (*Result, error) {
	return n.AnalyzeContext(context.Background(), opts)
}

// AnalyzeContext is Analyze with cancellation: the reachability BFS checks
// ctx every 128 expanded states and the embedded-chain solve every 64
// Gauss–Seidel sweeps, so multi-minute builds stop promptly when the
// caller's deadline fires.
func (n *Net) AnalyzeContext(ctx context.Context, opts Options) (*Result, error) {
	g, err := n.explore(ctx, opts.withDefaults(), false)
	if err != nil {
		return nil, err
	}
	p, err := markov.NewSparse(len(g.states), g.rowPtr, g.colIdx, g.prob)
	if err != nil {
		return nil, fmt.Errorf("petri: embedded chain: %w", err)
	}
	pi, err := markov.SteadyStateGaussSeidel(ctx, p, markov.IterOptions{})
	if err != nil {
		return nil, fmt.Errorf("petri: embedded chain: %w", err)
	}
	return n.measures(g, pi)
}

// StateCount builds the reachability graph and returns only its size —
// used by the scaling benchmarks that demonstrate the exponential growth
// the paper contrasts MVA against.
func (n *Net) StateCount(opts Options) (int, error) {
	return n.StateCountContext(context.Background(), opts)
}

// StateCountContext is StateCount with cancellation, checked every 128
// expanded states. It runs AnalyzeContext's search and stops before the
// solve.
func (n *Net) StateCountContext(ctx context.Context, opts Options) (int, error) {
	g, err := n.explore(ctx, opts.withDefaults(), true)
	if err != nil {
		return 0, err
	}
	return len(g.states), nil
}
