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

// A key is led by its kind: markings and states share one key table.
const (
	markTag  byte = 0
	stateTag byte = 1
)

// appendMarkingKey appends marking m's key to buf: markTag, then every
// token count as a uvarint.
func appendMarkingKey(buf []byte, m []int) []byte {
	buf = append(buf, markTag)
	for _, v := range m {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// appendStateKey appends a state's key to buf: stateTag, the memo entry of
// its marking, then every flight's transition and remaining time, as
// uvarints. An entry names one marking and uvarints are self-delimiting,
// so two states are equal exactly when their keys are.
func appendStateKey(buf []byte, mark int32, flights []inflight) []byte {
	buf = append(buf, stateTag)
	buf = binary.AppendUvarint(buf, uint64(mark))
	for _, f := range flights {
		buf = binary.AppendUvarint(buf, uint64(f.t))
		buf = binary.AppendUvarint(buf, uint64(f.remaining))
	}
	return buf
}

func flightLess(a, b inflight) bool {
	return a.t < b.t || a.t == b.t && a.remaining < b.remaining
}

// mergeFlights appends the union of the sorted flights a and b to dst,
// sorted.
func mergeFlights(dst, a, b []inflight) []inflight {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if flightLess(b[j], a[i]) {
			dst, j = append(dst, b[j]), j+1
		} else {
			dst, i = append(dst, a[i]), i+1
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
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
// stable states. Which transitions are enabled depends on the marking
// alone, and the firings already in flight pass through a resolution
// untouched, so the memo is keyed by the marking: its outcomes do not
// depend on how the marking was reached or on what is in flight, and the
// memo collapses the combinatorial explosion of firing orderings.
//
// An entry's outcomes are partial states: the stable marking reached plus
// the timed firings started on the way, each with its full duration. A
// partial state's key is the key of the stable state it is when nothing
// else is in flight; a step out of a stable state adds that state's
// remaining flights to each partial state of its marking's entry to name
// its successors.
type resolver struct {
	n      *Net
	np, nt int
	ctx    context.Context
	// misses counts memo entries built, for the periodic cancellation
	// check: a cold resolution can expand many markings.
	misses   int
	maxDepth int
	// keys interns marking and state keys. val[k] is marking key k's memo
	// entry, or state key k's stable id, -1 until a step reaches it.
	keys *keyTable
	val  []int32
	// marks[e*np:(e+1)*np] is the marking of memo entry e, stored at 32
	// bits a number.
	marks []int32
	memoRows
	// stable[id] is stable state id's key; ids are numbered in the order
	// steps first reach the states.
	stable []int32
	// pos[k] is 1 + the position of partial state k among the outcomes of
	// the entry being merged, 0 outside them.
	pos []int32
	buf []byte // key scratch: a memo hit encodes without allocating
	// fl and merged are flight scratch for plus.
	fl, merged []inflight
	// next[d] is where the resolution at depth d builds its successors'
	// markings, keyAt[d] holds its key while its successors reuse buf,
	// subs[d*nt:] the memo entries of its firings, and acc[d*nt:(d+1)*nt]
	// sums its expected firings.
	next  [][]int
	keyAt [][]byte
	subs  []int32
	acc   []float64
}

// memoRows holds the memoized resolutions back to back, in the order they
// were inserted. Entry e's outcomes are the partial-state keys
// outKey[outOff[e]:outOff[e+1]], reached with the probabilities outProb at
// the same indices, in the order a depth-first resolution first reaches
// them. The expected number of firings of each transition on the way to
// them is fireV at the transitions fireT, over fireOff[e]:fireOff[e+1];
// only non-zero counts are stored, in transition order. A stable marking's
// entry is its own single outcome, with nothing started, and fires
// nothing.
type memoRows struct {
	outOff, outKey []int32
	outProb        []float64
	fireOff, fireT []int32
	fireV          []float64
}

// outcomes returns entry e's partial states and their probabilities,
// valid until the next resolve.
func (m *memoRows) outcomes(e int32) ([]int32, []float64) {
	lo, hi := m.outOff[e], m.outOff[e+1]
	return m.outKey[lo:hi], m.outProb[lo:hi]
}

// fires returns entry e's non-zero expected firings: the transitions and
// the counts.
func (m *memoRows) fires(e int32) ([]int32, []float64) {
	lo, hi := m.fireOff[e], m.fireOff[e+1]
	return m.fireT[lo:hi], m.fireV[lo:hi]
}

func newResolver(ctx context.Context, n *Net, maxDepth int) *resolver {
	return &resolver{n: n, np: len(n.places), nt: len(n.trans), ctx: ctx, maxDepth: maxDepth,
		keys: newKeyTable(), memoRows: memoRows{outOff: []int32{0}, fireOff: []int32{0}}}
}

// add interns key, which find reported absent with hash h, with the value
// v, and returns its index.
func (r *resolver) add(key []byte, h uint64, v int32) int32 {
	r.val, r.pos = push(r.val, v), push(r.pos, 0)
	return int32(r.keys.add(key, h))
}

// intern returns the index of the state key key, adding it if it is new.
func (r *resolver) intern(key []byte) int32 {
	k, h := r.keys.find(key)
	if k >= 0 {
		return int32(k)
	}
	return r.add(key, h, -1)
}

// decodeState reads state key k: the memo entry of its marking, and its
// flights, appended to fl.
func (r *resolver) decodeState(k int32, fl []inflight) (int32, []inflight) {
	key := r.keys.key(int(k))
	e, i := binary.Uvarint(key[1:])
	for i++; i < len(key); {
		t, wt := binary.Uvarint(key[i:])
		rem, wr := binary.Uvarint(key[i+wt:])
		fl, i = append(fl, inflight{t: int32(t), remaining: int32(rem)}), i+wt+wr
	}
	return int32(e), fl
}

// plus returns the key of state k with the sorted flights f added: the
// partial state a firing that started f leads to through k, or the stable
// state that partial state k is when f were already in flight.
func (r *resolver) plus(k int32, f []inflight) int32 {
	if len(f) == 0 {
		return k
	}
	e, fl := r.decodeState(k, r.fl[:0])
	r.fl = fl
	r.merged = mergeFlights(r.merged[:0], fl, f)
	r.buf = appendStateKey(r.buf[:0], e, r.merged)
	return r.intern(r.buf)
}

// reach returns the id of the stable state with key k, numbering it next
// if no step has reached it before.
func (r *resolver) reach(k int32) int32 {
	if r.val[k] < 0 {
		r.val[k] = int32(len(r.stable))
		r.stable = push(r.stable, k)
	}
	return r.val[k]
}

// at writes stable state id into st: its marking into st.marking, which
// has one entry per place, and its flights into st.flights' storage.
func (r *resolver) at(id int, st *state) {
	e, fl := r.decodeState(r.stable[id], st.flights[:0])
	st.flights = fl
	for p, m := range r.marks[int(e)*r.np : (int(e)+1)*r.np] {
		st.marking[p] = int(m)
	}
}

// resolve returns the memo entry of the distribution over partial states
// reachable from marking m in zero time.
//
// Three rules keep every probability and firing count bitwise what a memo
// keyed by the whole raw state (marking and flights) computes. The
// contributions that reach one partial state are summed together, as
// they were for the one stable state it names; a group sums in firing
// order, starting from its first contribution (0 + w is w, as no w is
// -0); and an entry lists its outcomes in depth-first first-reach order
// (its firings' outcome lists concatenated in firing order without
// repeats), which is the order the raw-state search numbered new stable
// states in.
func (r *resolver) resolve(m []int, depth int) (int32, error) {
	r.buf = appendMarkingKey(r.buf[:0], m)
	k, h := r.keys.find(r.buf)
	if k >= 0 {
		return r.val[k], nil
	}
	r.misses++
	if r.misses%64 == 0 {
		if err := r.ctx.Err(); err != nil {
			return 0, fmt.Errorf("petri: zero-time resolution interrupted: %w", err)
		}
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
		if n.isEnabled(i, m) {
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
	if depth == len(r.next) {
		r.next = append(r.next, make([]int, r.np))
		r.keyAt = append(r.keyAt, nil)
		r.subs = append(r.subs, make([]int32, r.nt)...)
		r.acc = append(r.acc, make([]float64, r.nt)...)
	}
	r.keyAt[depth] = append(r.keyAt[depth][:0], r.buf...)
	if len(en) == 0 {
		r.buf = appendStateKey(r.buf[:0], int32(len(r.outOff)-1), nil)
		r.outKey, r.outProb = push(r.outKey, r.intern(r.buf)), push(r.outProb, 1)
		return r.insert(m, r.keyAt[depth], h)
	}
	sub := depth * r.nt
	for j, ti := range en {
		next := r.next[depth]
		copy(next, m)
		for _, a := range n.trans[ti].in {
			next[a.Place] -= a.Weight
		}
		if n.trans[ti].duration == 0 {
			for _, a := range n.trans[ti].out {
				next[a.Place] += a.Weight
			}
		}
		e, err := r.resolve(next, depth+1)
		if err != nil {
			return 0, err
		}
		r.subs[sub+j] = e
	}
	// Merge the firings' outcomes, in firing order; a timed firing adds
	// its own flight to each partial state its successor reaches.
	// E = Σ_ti p_ti·(δ_ti + E_sub(ti)): this entry's expected firings are
	// accumulated densely in acc and stored sparse once all are in.
	first := len(r.outKey)
	acc := r.acc[sub : sub+r.nt]
	clear(acc)
	for j, ti := range en {
		p := n.trans[ti].weight / total
		started := [1]inflight{{t: int32(ti), remaining: int32(n.trans[ti].duration)}}
		ks, probs := r.outcomes(r.subs[sub+j])
		for x, pk := range ks {
			if started[0].remaining != 0 {
				pk = r.plus(pk, started[:])
			}
			w := p * probs[x]
			if at := r.pos[pk]; at != 0 {
				r.outProb[at-1] += w
				continue
			}
			r.pos[pk] = int32(len(r.outKey) + 1)
			r.outKey, r.outProb = push(r.outKey, pk), push(r.outProb, w)
		}
		// Only the zero counts are skipped, and adding +0 leaves a sum's
		// bits as they are.
		ts, fs := r.fires(r.subs[sub+j])
		for x, t := range ts {
			acc[t] += p * fs[x]
		}
		acc[ti] += p
	}
	for _, pk := range r.outKey[first:] {
		r.pos[pk] = 0
	}
	for t, f := range acc {
		if f != 0 {
			r.fireT, r.fireV = push(r.fireT, int32(t)), push(r.fireV, f)
		}
	}
	return r.insert(m, r.keyAt[depth], h)
}

// insert memoizes marking m, whose key is key with hash h, as the entry
// whose outcomes and firings were appended last, and returns its index.
func (r *resolver) insert(m []int, key []byte, h uint64) (int32, error) {
	e := int32(len(r.outOff) - 1)
	r.marks = reserve(r.marks, len(m))
	for p, v := range m {
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("petri: place %d holds %d tokens, more than a stable state stores", p, v)
		}
		r.marks = append(r.marks, int32(v))
	}
	r.add(key, h, e)
	r.outOff = push(r.outOff, int32(len(r.outKey)))
	r.fireOff = push(r.fireOff, int32(len(r.fireT)))
	return e, nil
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

// advance moves a stable state forward to its next event: time passes by
// the minimum remaining firing time, completed firings deposit their
// outputs. It writes the raw (possibly unstable) state into next, whose
// flights stay sorted.
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
// ids are the order steps first reach the states, and states are expanded
// in id order, so the search yields the transition matrix row by row.
type graph struct {
	*resolver
	// Row i of the embedded chain is the step out of stable state i: its
	// columns are rowID[rowOff[i]:rowOff[i+1]], the states that memo entry
	// rowEntry[i]'s partial states name with state i's flights added, in
	// the entry's order, and its probabilities are the entry's own. The
	// entry's firings are the expected firings of that step.
	rowOff, rowID, rowEntry []int32
}

// len returns the number of stable states.
func (g *graph) len() int { return len(g.stable) }

// row returns row i of the embedded chain's transition matrix: its
// distinct columns and their probabilities.
func (g *graph) row(i int) ([]int32, []float64) {
	_, probs := g.outcomes(g.rowEntry[i])
	return g.rowID[g.rowOff[i]:g.rowOff[i+1]], probs
}

// explore builds the reachability graph by BFS over stable states. It
// checks ctx every ctxCheckInterval expanded states (and the resolver
// every 64 markings it memoizes).
func (n *Net) explore(ctx context.Context, o Options) (*graph, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	st, raw := state{marking: make([]int, len(n.places))}, state{marking: make([]int, len(n.places))}
	for i, p := range n.places {
		raw.marking[i] = p.initial
	}
	g := &graph{resolver: newResolver(ctx, n, o.MaxResolutionDepth), rowOff: []int32{0}}
	e, err := g.resolve(raw.marking, 0)
	if err != nil {
		return nil, err
	}
	ks, _ := g.outcomes(e)
	for _, k := range ks {
		g.reach(k)
	}
	for id := 0; id < g.len(); id++ {
		if err := checkBudget(ctx, id+1, g.len(), o.MaxStates); err != nil {
			return nil, err
		}
		g.at(id, &st)
		if err := n.advance(&raw, st); err != nil {
			return nil, fmt.Errorf("petri: state %d: %w", id, err)
		}
		e, err := g.resolve(raw.marking, 0)
		if err != nil {
			return nil, err
		}
		ks, _ := g.outcomes(e)
		for _, k := range ks {
			g.rowID = push(g.rowID, g.reach(g.plus(k, raw.flights)))
		}
		if g.len() > o.MaxStates {
			return nil, explosionErr(g.len(), o.MaxStates)
		}
		g.rowEntry, g.rowOff = push(g.rowEntry, e), push(g.rowOff, int32(len(g.rowID)))
	}
	return g, nil
}

// measures turns the embedded chain's stationary distribution pi into the
// time-averaged semi-Markov measures.
func (n *Net) measures(g *graph, pi []float64) (*Result, error) {
	res := &Result{
		States:          g.len(),
		TimeAvgMarking:  make([]float64, len(n.places)),
		TimeAvgInFlight: make([]float64, len(n.trans)),
		Throughput:      make([]float64, len(n.trans)),
	}
	st := state{marking: make([]int, len(n.places))}
	var totalTime float64
	for id := range g.stable {
		g.at(id, &st)
		totalTime += pi[id] * float64(sojourn(st.flights))
	}
	if totalTime <= 0 {
		return nil, errors.New("petri: degenerate zero total time")
	}
	res.MeanCycle = totalTime
	for id := range g.stable {
		g.at(id, &st)
		w := pi[id] * float64(sojourn(st.flights)) / totalTime
		for p, m := range st.marking {
			res.TimeAvgMarking[p] += w * float64(m)
		}
		for _, f := range st.flights {
			res.TimeAvgInFlight[f.t] += w
		}
		ts, fs := g.fires(g.rowEntry[id])
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
	pi, err := markov.SteadyStateGaussSeidel(ctx, g.len(), g.row, markov.IterOptions{})
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
	return g.len(), nil
}
