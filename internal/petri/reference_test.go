package petri

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"snoopmva/internal/markov"
)

// refEntry is one resolution of the reference resolver: its stable
// outcomes sorted by id, their probabilities, and the expected firings of
// every transition on the way.
type refEntry struct {
	ids   []int32
	probs []float64
	fires []float64
}

// refResolver is the zero-time resolver keyed by the whole raw state
// (marking and in-flight firings), kept as the reference the marking-keyed
// resolver must match bit for bit. Stable states are numbered as the
// depth-first search first reaches them; a resolution's contributions to
// one stable state are summed in firing order, starting from 0; firing
// counts are summed densely.
type refResolver struct {
	n        *Net
	maxDepth int
	memo     map[string]*refEntry
	states   []state
}

func refKey(s state) string {
	var buf []byte
	for _, m := range s.marking {
		buf = binary.AppendUvarint(buf, uint64(m))
	}
	for _, f := range s.flights {
		buf = binary.AppendUvarint(buf, uint64(f.t))
		buf = binary.AppendUvarint(buf, uint64(f.remaining))
	}
	return string(buf)
}

func (r *refResolver) resolve(raw state, depth int) (*refEntry, error) {
	raw = state{marking: slices.Clone(raw.marking), flights: slices.Clone(raw.flights)}
	slices.SortFunc(raw.flights, func(a, b inflight) int {
		if a.t != b.t {
			return int(a.t - b.t)
		}
		return int(a.remaining - b.remaining)
	})
	key := refKey(raw)
	if e, ok := r.memo[key]; ok {
		return e, nil
	}
	if depth >= r.maxDepth {
		return nil, errors.New("petri: zero-time firing chain exceeded depth limit (Zeno net?)")
	}
	n := r.n
	var en []int
	var total float64
	anyImmediate := false
	for i := range n.trans {
		if !n.isEnabled(i, raw.marking) {
			continue
		}
		if n.trans[i].duration == 0 && !anyImmediate {
			anyImmediate, en, total = true, nil, 0
		}
		if anyImmediate && n.trans[i].duration != 0 {
			continue
		}
		en = append(en, i)
		total += n.trans[i].weight
	}
	e := &refEntry{fires: make([]float64, len(n.trans))}
	if len(en) == 0 {
		e.ids, e.probs = []int32{int32(len(r.states))}, []float64{1}
		r.states = append(r.states, raw)
		r.memo[key] = e
		return e, nil
	}
	type contrib struct {
		id int32
		w  float64
	}
	var cs []contrib
	for _, ti := range en {
		p := n.trans[ti].weight / total
		next := state{marking: slices.Clone(raw.marking), flights: slices.Clone(raw.flights)}
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
		sub, err := r.resolve(next, depth+1)
		if err != nil {
			return nil, err
		}
		for j, id := range sub.ids {
			cs = append(cs, contrib{id, p * sub.probs[j]})
		}
		for t, f := range sub.fires {
			e.fires[t] += p * f
		}
		e.fires[ti] += p
	}
	// A stable sort keeps equal ids in firing order.
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].id < cs[b].id })
	for _, c := range cs {
		if len(e.ids) == 0 || e.ids[len(e.ids)-1] != c.id {
			e.ids, e.probs = append(e.ids, c.id), append(e.probs, 0)
		}
		e.probs[len(e.probs)-1] += c.w
	}
	r.memo[key] = e
	return e, nil
}

// refExplore builds n's reachability graph with the reference resolver:
// the stable states in id order and the step out of each.
func refExplore(n *Net, o Options) ([]state, []*refEntry, error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	r := &refResolver{n: n, maxDepth: o.MaxResolutionDepth, memo: map[string]*refEntry{}}
	init := state{marking: make([]int, len(n.places))}
	for i, p := range n.places {
		init.marking[i] = p.initial
	}
	if _, err := r.resolve(init, 0); err != nil {
		return nil, nil, err
	}
	var rows []*refEntry
	for id := 0; id < len(r.states); id++ {
		raw := state{marking: make([]int, len(n.places))}
		if err := n.advance(&raw, r.states[id]); err != nil {
			return nil, nil, err
		}
		e, err := r.resolve(raw, 0)
		if err != nil {
			return nil, nil, err
		}
		if len(r.states) > o.MaxStates {
			return nil, nil, explosionErr(len(r.states), o.MaxStates)
		}
		rows = append(rows, e)
	}
	return r.states, rows, nil
}

// MatchesReference builds n's reachability graph with the engine's
// resolver and with the raw-state reference, and reports the first
// difference: in whether each fails, in the states and their ids, in any
// row's columns or probabilities, in any step's expected firing counts, or
// in the Gauss–Seidel solution of the two chains (at most maxSweeps
// sweeps), all compared bit for bit. It returns the number of states, 0
// when both builds fail alike, and whether both chains were solved.
func MatchesReference(n *Net, opts Options, maxSweeps int) (int, bool, error) {
	o := opts.withDefaults()
	g, err := n.explore(context.Background(), o)
	refStates, refRows, refErr := refExplore(n, o)
	if (err == nil) != (refErr == nil) {
		return 0, false, fmt.Errorf("engine error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return 0, false, nil
	}
	if g.len() != len(refStates) {
		return 0, false, fmt.Errorf("%d states, reference %d", g.len(), len(refStates))
	}
	st := state{marking: make([]int, len(n.places))}
	for id, want := range refStates {
		g.at(id, &st)
		if !slices.Equal(st.marking, want.marking) || !slices.Equal(st.flights, want.flights) {
			return 0, false, fmt.Errorf("state %d is %v, reference %v", id, st, want)
		}
		cols, probs := g.row(id)
		type cell struct {
			id int32
			p  float64
		}
		cells := make([]cell, len(cols))
		for k, j := range cols {
			cells[k] = cell{j, probs[k]}
		}
		slices.SortFunc(cells, func(a, b cell) int { return int(a.id - b.id) })
		ref := refRows[id]
		if len(cells) != len(ref.ids) {
			return 0, false, fmt.Errorf("row %d has %d columns, reference %d", id, len(cells), len(ref.ids))
		}
		for k, c := range cells {
			if c.id != ref.ids[k] || math.Float64bits(c.p) != math.Float64bits(ref.probs[k]) {
				return 0, false, fmt.Errorf("row %d entry %d is (%d, %v), reference (%d, %v)", id, k, c.id, c.p, ref.ids[k], ref.probs[k])
			}
		}
		fires := make([]float64, len(n.trans))
		ts, fs := g.fires(g.rowEntry[id])
		for k, t := range ts {
			fires[t] = fs[k]
		}
		for t, f := range fires {
			if math.Float64bits(f) != math.Float64bits(ref.fires[t]) {
				return 0, false, fmt.Errorf("row %d fires transition %d %v times, reference %v", id, t, f, ref.fires[t])
			}
		}
	}
	ctx := context.Background()
	iter := markov.IterOptions{MaxIter: maxSweeps}
	pi, err := markov.SteadyStateGaussSeidel(ctx, g.len(), g.row, iter)
	refPi, refErr := markov.SteadyStateGaussSeidel(ctx, len(refRows), func(i int) ([]int32, []float64) {
		return refRows[i].ids, refRows[i].probs
	}, iter)
	if (err == nil) != (refErr == nil) {
		return 0, false, fmt.Errorf("embedded chain: engine error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return g.len(), false, nil
	}
	for i := range pi {
		if math.Float64bits(pi[i]) != math.Float64bits(refPi[i]) {
			return 0, false, fmt.Errorf("π[%d] = %v, reference %v", i, pi[i], refPi[i])
		}
	}
	return g.len(), true, nil
}

// randomNet builds a small conservative net: every transition deposits as
// many tokens as it consumes, so the markings are bounded, and every place
// has a timed transition that drains it one token at a time, so no token
// is stranded. The other transitions mix immediate and timed ones, with
// unequal weights and arcs of weight 1 or 2.
func randomNet(rng *rand.Rand) *Net {
	n := NewNet()
	np := 2 + rng.Intn(4)
	for p := 0; p < np; p++ {
		n.AddPlace(fmt.Sprint("p", p), 0)
	}
	for tokens := 2 + rng.Intn(4); tokens > 0; tokens-- {
		n.places[rng.Intn(np)].initial++
	}
	weight := func() float64 { return 0.25 + 3*rng.Float64() }
	for p := 0; p < np; p++ {
		tr := n.AddTransition(fmt.Sprint("drain", p), 1+rng.Intn(4), weight())
		n.AddInput(tr, PlaceID(p), 1)
		n.AddOutput(tr, PlaceID(rng.Intn(np)), 1)
	}
	for t := range rng.Intn(6) {
		// An immediate transition only moves tokens to higher places, so
		// no zero-time cycle (a Zeno net) forms.
		immediate := rng.Intn(2) == 0
		duration := 0
		if !immediate {
			duration = 1 + rng.Intn(4)
		}
		tr := n.AddTransition(fmt.Sprint("t", t), duration, weight())
		low, moved := 0, 0
		for range 1 + rng.Intn(2) {
			p, w := rng.Intn(np), 1+rng.Intn(2)
			if immediate {
				p = rng.Intn(np - 1)
			}
			n.AddInput(tr, PlaceID(p), w)
			low, moved = max(low, p+1), moved+w
		}
		for moved > 0 {
			p, w := rng.Intn(np), min(moved, 1+rng.Intn(2))
			if immediate {
				p = low + rng.Intn(np-low)
			}
			n.AddOutput(tr, PlaceID(p), w)
			moved -= w
		}
	}
	return n
}

// The marking-keyed resolver must build the same graph, bit for bit, as
// the raw-state reference on seeded random nets. Many of them are
// reducible or periodic, so only some chains are solved. (The protocol
// nets are compared in oracle_test.go.)
func TestResolverMatchesRawStateReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	built, solved, failed, states := 0, 0, 0, 0
	for i := 0; i < 300; i++ {
		n := randomNet(rng)
		ns, ok, err := MatchesReference(n, Options{MaxStates: 2000, MaxResolutionDepth: 200}, 5000)
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		if ns == 0 {
			failed++
			continue
		}
		built++
		states += ns
		if ok {
			solved++
		}
	}
	t.Logf("%d graphs built (%d states in all; %d chains solved), %d builds failed alike", built, states, solved, failed)
	if built < 250 || solved < 60 {
		t.Errorf("%d of 300 random nets built a graph and %d solved; the generator no longer exercises the resolver", built, solved)
	}
}
