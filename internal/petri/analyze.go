package petri

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	t, remaining int32
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
		return int(a.remaining - b.remaining)
	})
}

// stableSet stores stable states back to back, at 32 bits a number: state
// i's marking is marks[i*np:(i+1)*np] and its flights are
// flights[off[i]:off[i+1]].
type stableSet struct {
	np      int
	marks   []int32
	flights []inflight
	off     []int32
}

func (ss *stableSet) len() int { return len(ss.off) - 1 }

func (ss *stableSet) add(st state) error {
	ss.marks = reserve(ss.marks, len(st.marking))
	for p, m := range st.marking {
		if m > math.MaxInt32 {
			return fmt.Errorf("petri: place %d holds %d tokens, more than a stable state stores", p, m)
		}
		ss.marks = append(ss.marks, int32(m))
	}
	ss.flights = push(ss.flights, st.flights...)
	ss.off = push(ss.off, int32(len(ss.flights)))
	return nil
}

// at writes state i into st: its marking into st.marking, which has one
// entry per place, and its flights as a view into the set, valid until
// the next add.
func (ss *stableSet) at(i int, st *state) {
	for p, m := range ss.marks[i*ss.np : (i+1)*ss.np] {
		st.marking[p] = int(m)
	}
	st.flights = ss.flightsOf(i)
}

// flightsOf returns state i's flights as a view into the set, valid until
// the next add.
func (ss *stableSet) flightsOf(i int) []inflight {
	return ss.flights[ss.off[i]:ss.off[i+1]:ss.off[i+1]]
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
	n  *Net
	nt int
	// memo maps a raw state's key to its index k, and entry k of the
	// memoRows is its resolution.
	memo *keyTable
	memoRows
	// stable holds every stable state in the order resolutions first reach
	// it. Each is memoized as its own one-run resolution, so it is encoded
	// and stored once, and its index is its id in the graph.
	stable stableSet
	ctx    context.Context
	// calls counts resolve entries for the periodic cancellation check: a
	// single cold-memo resolution can expand thousands of intermediate
	// states, far longer than the BFS-level check granularity.
	calls    int
	maxDepth int
	buf      []byte // key scratch: a memo hit encodes without allocating
	// cs and lists are merge scratch, stacks shared by nested resolutions:
	// each firing pushes its weighted outcomes on cs and their extent on
	// lists.
	cs    []contrib
	lists []span
	// scratch[d] is where resolutions at depth d build their successors,
	// keys[d] holds the key of the state resolved at depth d while its
	// successors reuse buf, and acc[d*nt:(d+1)*nt] sums its expected
	// firings.
	scratch []state
	keys    [][]byte
	acc     []float64
}

// memoRows holds the memoized resolutions back to back, in the order they
// were inserted. Entry k's stable outcomes, sorted by id, are the states
// runID[runOff[k]:runOff[k+1]], reached with the probabilities runProb at
// the same indices. The expected number of firings of each transition on
// the way to them is fireV at the transitions fireT, over
// fireOff[k]:fireOff[k+1]; only non-zero counts are stored, in transition
// order. A stable state's entry is its own single outcome and fires
// nothing.
type memoRows struct {
	runOff, runID  []int32
	runProb        []float64
	fireOff, fireT []int32
	fireV          []float64
}

// outcomes returns entry k's stable outcomes and their probabilities,
// valid until the next resolve.
func (m *memoRows) outcomes(k int32) ([]int32, []float64) {
	lo, hi := m.runOff[k], m.runOff[k+1]
	return m.runID[lo:hi], m.runProb[lo:hi]
}

// fires returns entry k's non-zero expected firings: the transitions and
// the counts.
func (m *memoRows) fires(k int32) ([]int32, []float64) {
	lo, hi := m.fireOff[k], m.fireOff[k+1]
	return m.fireT[lo:hi], m.fireV[lo:hi]
}

func newResolver(ctx context.Context, n *Net, maxDepth int) *resolver {
	return &resolver{n: n, nt: len(n.trans), memo: newKeyTable(), memoRows: memoRows{runOff: []int32{0}, fireOff: []int32{0}},
		stable: stableSet{np: len(n.places), off: []int32{0}}, ctx: ctx, maxDepth: maxDepth}
}

// contrib is one weighted stable outcome of a firing.
type contrib struct {
	id int32
	w  float64
}

// span is the part of resolver.cs a firing's outcomes have not yet been
// merged from: cs[from:to].
type span struct{ from, to int }

// resolve returns the memo entry of the stable-state distribution
// reachable from raw in zero time, whose runs are sorted by state id.
// raw's flights are sorted in place; raw is copied only if it is a new
// stable state.
func (r *resolver) resolve(raw state, depth int) (int32, error) {
	r.calls++
	if r.calls%64 == 0 {
		if err := r.ctx.Err(); err != nil {
			return 0, fmt.Errorf("petri: zero-time resolution interrupted: %w", err)
		}
	}
	sortFlights(raw.flights)
	r.buf = raw.appendKey(r.buf[:0])
	k, h := r.memo.find(r.buf)
	if k >= 0 {
		return int32(k), nil
	}
	if depth >= r.maxDepth {
		return 0, errors.New("petri: zero-time firing chain exceeded depth limit (Zeno net?)")
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
		r.runID = push(r.runID, int32(r.stable.len()))
		r.runProb = push(r.runProb, 1)
		if err := r.stable.add(raw); err != nil {
			return 0, err
		}
		return r.insert(r.buf, h), nil
	}
	if depth == len(r.scratch) {
		r.scratch = append(r.scratch, state{marking: make([]int, len(raw.marking))})
		r.keys = append(r.keys, nil)
		r.acc = append(r.acc, make([]float64, r.nt)...)
	}
	r.keys[depth] = append(r.keys[depth][:0], r.buf...)
	// E = Σ_ti p_ti·(δ_ti + E_sub(ti)): this entry's expected firings are
	// accumulated densely in acc as each successor resolves, and stored
	// sparse once all have.
	acc := depth * r.nt
	clear(r.acc[acc : acc+r.nt])
	base, lbase := len(r.cs), len(r.lists)
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
			next.flights = append(next.flights, inflight{t: int32(ti), remaining: int32(n.trans[ti].duration)})
		}
		sub, err := r.resolve(*next, depth+1)
		if err != nil {
			return 0, err
		}
		from := len(r.cs)
		ids, probs := r.outcomes(sub)
		for j, id := range ids {
			r.cs = append(r.cs, contrib{id: id, w: p * probs[j]})
		}
		r.lists = append(r.lists, span{from, len(r.cs)})
		// Only the zero counts are skipped, and adding +0 leaves a sum's
		// bits as they are.
		e := r.acc[acc : acc+r.nt]
		ts, fs := r.fires(sub)
		for j, t := range ts {
			e[t] += p * fs[j]
		}
		e[ti] += p
	}
	// Merge contributions that reach the same stable state. Each nested
	// resolution popped what it pushed, so this one's are r.cs[base:], one
	// id-sorted list per firing, listed in r.lists[lbase:]. Merging them
	// by id, the earlier firing first on equal ids, keeps each state's
	// contributions in firing order, which fixes the order the sums below
	// accumulate in.
	lists := r.lists[lbase:]
	first := len(r.runID)
	r.runID, r.runProb = reserve(r.runID, len(r.cs)-base), reserve(r.runProb, len(r.cs)-base)
	for range len(r.cs) - base {
		best := -1
		for j, l := range lists {
			if l.from < l.to && (best < 0 || r.cs[l.from].id < r.cs[lists[best].from].id) {
				best = j
			}
		}
		c := r.cs[lists[best].from]
		lists[best].from++
		if len(r.runID) == first || r.runID[len(r.runID)-1] != c.id {
			r.runID, r.runProb = append(r.runID, c.id), append(r.runProb, 0)
		}
		r.runProb[len(r.runProb)-1] += c.w
	}
	r.cs, r.lists = r.cs[:base], r.lists[:lbase]
	for t, f := range r.acc[acc : acc+r.nt] {
		if f != 0 {
			r.fireT, r.fireV = push(r.fireT, int32(t)), push(r.fireV, f)
		}
	}
	return r.insert(r.keys[depth], h), nil
}

// reserve returns s with room for n more elements, doubling its capacity
// when it must grow: the arenas reach megabytes, where append's gentler
// growth would copy each element several times over. An arena starts at
// 256 elements, so the doublings of its first kilobytes cost no
// allocations.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n, 256))
	copy(grown, s)
	return grown
}

// push appends vs to the arena s, growing it by reserve.
func push[T any](s []T, vs ...T) []T { return append(reserve(s, len(vs)), vs...) }

// insert memoizes under key, whose hash is h, the entry whose outcomes and
// firings were appended last, and returns its index.
func (r *resolver) insert(key []byte, h uint64) int32 {
	r.runOff = push(r.runOff, int32(len(r.runID)))
	r.fireOff = push(r.fireOff, int32(len(r.fireT)))
	return int32(r.memo.add(key, h))
}

// advance moves a stable state forward to its next event: time passes by
// the minimum remaining firing time, completed firings deposit their
// outputs. It writes the raw (possibly unstable) state into next.
func (n *Net) advance(next *state, st state) error {
	if len(st.flights) == 0 {
		return errors.New("petri: deadlock — no enabled transitions and nothing in flight")
	}
	dt := sojourn(st.flights)
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
	return nil
}

// sojourn returns the time a stable state with the given flights, at least
// one, spends before its next event: the least remaining firing time.
func sojourn(flights []inflight) int32 {
	return slices.MinFunc(flights, func(a, b inflight) int { return int(a.remaining - b.remaining) }).remaining
}

// graph is the extended reachability graph with its embedded chain. State
// ids are the resolver's discovery order, and states are expanded in id
// order, so the search yields the transition matrix row by row. The rows
// are the memo's own entries, so the chain is stored once.
type graph struct {
	states stableSet
	// rows[id] is the memo entry of the step out of id: its outcomes are
	// row id of the embedded chain's transition matrix, its firings the
	// expected number of firings of each transition on that step.
	rows []int32
	memoRows
}

// row returns row i of the embedded chain's transition matrix: its
// distinct columns and their probabilities.
func (g *graph) row(i int) ([]int32, []float64) { return g.outcomes(g.rows[i]) }

// explore builds the reachability graph by BFS over stable states. It
// checks ctx every ctxCheckInterval expanded states (and the resolver
// every 64 zero-time resolutions).
func (n *Net) explore(ctx context.Context, o Options) (*graph, error) {
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
	st, raw := state{marking: make([]int, len(n.places))}, state{marking: make([]int, len(n.places))}
	for id := 0; id < rv.stable.len(); id++ {
		if err := checkBudget(ctx, id+1, rv.stable.len(), o.MaxStates); err != nil {
			return nil, err
		}
		rv.stable.at(id, &st)
		if err := n.advance(&raw, st); err != nil {
			return nil, fmt.Errorf("petri: state %d: %w", id, err)
		}
		e, err := rv.resolve(raw, 0)
		if err != nil {
			return nil, err
		}
		if rv.stable.len() > o.MaxStates {
			return nil, explosionErr(rv.stable.len(), o.MaxStates)
		}
		g.rows = append(g.rows, e)
	}
	g.states, g.memoRows = rv.stable, rv.memoRows
	return g, nil
}

// measures turns the embedded chain's stationary distribution pi into the
// time-averaged semi-Markov measures.
func (n *Net) measures(g *graph, pi []float64) (*Result, error) {
	res := &Result{
		States:          g.states.len(),
		TimeAvgMarking:  make([]float64, len(n.places)),
		TimeAvgInFlight: make([]float64, len(n.trans)),
		Throughput:      make([]float64, len(n.trans)),
	}
	var totalTime float64
	for id := range g.rows {
		totalTime += pi[id] * float64(sojourn(g.states.flightsOf(id)))
	}
	if totalTime <= 0 {
		return nil, errors.New("petri: degenerate zero total time")
	}
	res.MeanCycle = totalTime
	st := state{marking: make([]int, len(n.places))}
	for id := range g.rows {
		g.states.at(id, &st)
		w := pi[id] * float64(sojourn(st.flights)) / totalTime
		for p, m := range st.marking {
			res.TimeAvgMarking[p] += w * float64(m)
		}
		for _, f := range st.flights {
			res.TimeAvgInFlight[f.t] += w
		}
		ts, fs := g.fires(g.rows[id])
		for j, t := range ts {
			res.Throughput[t] += pi[id] * fs[j]
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
	g, err := n.explore(ctx, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	pi, err := markov.SteadyStateGaussSeidel(ctx, g.states.len(), g.row, markov.IterOptions{})
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
	g, err := n.explore(ctx, opts.withDefaults())
	if err != nil {
		return 0, err
	}
	return g.states.len(), nil
}
