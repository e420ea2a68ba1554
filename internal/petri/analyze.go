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

// run is one stable state reachable from a resolution, with its path
// probability.
type run struct {
	id   int32 // the stable state: an index into resolver.stable
	prob float64
}

// stableSet stores stable states back to back: state i's marking is
// marks[i*np:(i+1)*np] and its flights are flights[off[i]:off[i+1]].
type stableSet struct {
	np      int
	marks   []int
	flights []inflight
	off     []int32
}

func (ss *stableSet) len() int { return len(ss.off) - 1 }

func (ss *stableSet) add(st state) {
	ss.marks = push(ss.marks, st.marking...)
	ss.flights = push(ss.flights, st.flights...)
	ss.off = push(ss.off, int32(len(ss.flights)))
}

// at returns state i as views into the set, valid until the next add.
func (ss *stableSet) at(i int) state {
	return state{marking: ss.marks[i*ss.np : (i+1)*ss.np : (i+1)*ss.np], flights: ss.flights[ss.off[i]:ss.off[i+1]:ss.off[i+1]]}
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
	// memo maps a raw state's key to its entry: entries[k] belongs to the
	// key with index k.
	memo    *keyTable
	entries []entry
	// runs and fires are the arenas the entries point into.
	runs  []run
	fires []float64
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
	// and keys[d] holds the key of the state resolved at depth d while its
	// successors reuse buf.
	scratch []state
	keys    [][]byte
}

// entry is one memoized resolution: its stable outcomes sorted by id, and
// the expected number of firings of each transition on the way to them.
type entry struct {
	runs, nruns int32 // the outcomes are runs[runs : runs+nruns]
	fires       int32 // the expected firings are fires[fires : fires+nt]; -1 when nothing fires
}

func newResolver(ctx context.Context, n *Net, maxDepth int) *resolver {
	return &resolver{n: n, nt: len(n.trans), memo: newKeyTable(), stable: stableSet{np: len(n.places), off: []int32{0}}, ctx: ctx, maxDepth: maxDepth}
}

// outcomes returns the stable runs of entry e, valid until the next
// resolve.
func (r *resolver) outcomes(e int32) []run {
	en := r.entries[e]
	return r.runs[en.runs : en.runs+en.nruns]
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
		r.runs = push(r.runs, run{id: int32(r.stable.len()), prob: 1})
		r.stable.add(raw)
		return r.insert(r.buf, h, entry{runs: int32(len(r.runs) - 1), nruns: 1, fires: -1}), nil
	}
	if depth == len(r.scratch) {
		r.scratch = append(r.scratch, state{marking: make([]int, len(raw.marking))})
		r.keys = append(r.keys, nil)
	}
	r.keys[depth] = append(r.keys[depth][:0], r.buf...)
	// E = Σ_ti p_ti·(δ_ti + E_sub(ti)): this entry's expected firings are
	// reserved now and accumulated as each successor resolves.
	fires := len(r.fires)
	r.fires = reserve(r.fires, r.nt)[:fires+r.nt]
	clear(r.fires[fires:])
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
			next.flights = append(next.flights, inflight{t: TransID(ti), remaining: n.trans[ti].duration})
		}
		sub, err := r.resolve(*next, depth+1)
		if err != nil {
			return 0, err
		}
		from := len(r.cs)
		for _, o := range r.outcomes(sub) {
			r.cs = append(r.cs, contrib{id: o.id, w: p * o.prob})
		}
		r.lists = append(r.lists, span{from, len(r.cs)})
		e := r.fires[fires : fires+r.nt]
		if sf := r.entries[sub].fires; sf >= 0 {
			for t, f := range r.fires[sf : int(sf)+r.nt] {
				e[t] += p * f
			}
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
	first := len(r.runs)
	r.runs = reserve(r.runs, len(r.cs)-base)
	for range len(r.cs) - base {
		best := -1
		for j, l := range lists {
			if l.from < l.to && (best < 0 || r.cs[l.from].id < r.cs[lists[best].from].id) {
				best = j
			}
		}
		c := r.cs[lists[best].from]
		lists[best].from++
		if len(r.runs) == first || r.runs[len(r.runs)-1].id != c.id {
			r.runs = append(r.runs, run{id: c.id})
		}
		r.runs[len(r.runs)-1].prob += c.w
	}
	r.cs, r.lists = r.cs[:base], r.lists[:lbase]
	return r.insert(r.keys[depth], h, entry{runs: int32(first), nruns: int32(len(r.runs) - first), fires: int32(fires)}), nil
}

// reserve returns s with room for n more elements, doubling its capacity
// when it must grow: the arenas reach megabytes, where append's gentler
// growth would copy each element several times over.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(grown, s)
	return grown
}

// push appends vs to the arena s, growing it by reserve.
func push[T any](s []T, vs ...T) []T { return append(reserve(s, len(vs)), vs...) }

// insert memoizes e under key, whose hash is h, and returns its index.
func (r *resolver) insert(key []byte, h uint64, e entry) int32 {
	r.entries = push(r.entries, e)
	return int32(r.memo.add(key, h))
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
	states stableSet
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
	var rows []int32 // rows[id]: the memo entry of leaving state id
	nnz, raw := 0, state{marking: make([]int, len(n.places))}
	for id := 0; id < rv.stable.len(); id++ {
		if err := checkBudget(ctx, id+1, rv.stable.len(), o.MaxStates); err != nil {
			return nil, err
		}
		dt, err := n.advance(&raw, rv.stable.at(id))
		if err != nil {
			return nil, fmt.Errorf("petri: state %d: %w", id, err)
		}
		e, err := rv.resolve(raw, 0)
		if err != nil {
			return nil, err
		}
		if rv.stable.len() > o.MaxStates {
			return nil, explosionErr(rv.stable.len(), o.MaxStates)
		}
		g.sojourn = append(g.sojourn, dt)
		rows = append(rows, e)
		nnz += int(rv.entries[e].nruns)
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
	for id, e := range rows {
		for _, o := range rv.outcomes(e) {
			g.colIdx = append(g.colIdx, int(o.id))
			g.prob = append(g.prob, o.prob)
		}
		g.rowPtr = append(g.rowPtr, len(g.colIdx))
		if f := rv.entries[e].fires; f >= 0 {
			copy(g.fires[id*nt:(id+1)*nt], rv.fires[f:int(f)+nt])
		}
	}
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
	for id, dt := range g.sojourn {
		totalTime += pi[id] * float64(dt)
	}
	if totalTime <= 0 {
		return nil, errors.New("petri: degenerate zero total time")
	}
	res.MeanCycle = totalTime
	nt := len(n.trans)
	for id := range g.sojourn {
		st := g.states.at(id)
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
	p, err := markov.NewSparse(g.states.len(), g.rowPtr, g.colIdx, g.prob)
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
	return g.states.len(), nil
}
