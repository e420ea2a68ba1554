// Package petri implements a Generalized Timed Petri Net (GTPN) engine in
// the style of Holliday & Vernon [HoVe85] — the formalism behind the
// detailed model the paper validates its MVA against.
//
// The net model is discrete-time:
//
//   - places hold tokens;
//   - transitions have integer firing durations (0 = immediate) and
//     positive firing frequencies (relative weights used to resolve
//     conflicts probabilistically);
//   - when a transition fires it removes its input tokens immediately and
//     deposits its output tokens after its duration elapses.
//
// Analysis proceeds by building the extended reachability graph over
// "stable" states (marking + in-flight firings with remaining times, no
// transition enabled), treating it as a semi-Markov process: the embedded
// chain is solved for its stationary distribution (internal/markov) and
// time-weighted measures (mean markings, transition throughputs) follow.
//
// The engine reproduces the paper's computational story: solution cost
// grows exponentially with the modeled system size, which is precisely why
// the MVA model is valuable (Section 3.2).
package petri

import (
	"errors"
	"fmt"
	"math"
)

// PlaceID identifies a place in a Net.
type PlaceID int

// TransID identifies a transition in a Net.
type TransID int

// Arc couples a place to a transition with a token weight.
type Arc struct {
	Place  PlaceID
	Weight int
}

type place struct {
	name    string
	initial int
}

type transition struct {
	name     string
	duration int
	weight   float64
	in       []Arc
	out      []Arc
}

// Net is a Generalized Timed Petri Net under construction.
type Net struct {
	places []place
	trans  []transition
}

// NewNet returns an empty net.
func NewNet() *Net { return &Net{} }

// AddPlace adds a place with an initial marking and returns its ID.
func (n *Net) AddPlace(name string, initial int) PlaceID {
	if initial < 0 {
		panic(fmt.Sprintf("petri: internal invariant violated: negative initial marking for %q", name))
	}
	n.places = append(n.places, place{name: name, initial: initial})
	return PlaceID(len(n.places) - 1)
}

// AddTransition adds a transition with the given firing duration (cycles;
// 0 means immediate) and conflict-resolution weight (must be positive).
func (n *Net) AddTransition(name string, duration int, weight float64) TransID {
	if duration < 0 {
		panic(fmt.Sprintf("petri: internal invariant violated: negative duration for %q", name))
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		panic(fmt.Sprintf("petri: internal invariant violated: non-positive weight %v for %q", weight, name))
	}
	n.trans = append(n.trans, transition{name: name, duration: duration, weight: weight})
	return TransID(len(n.trans) - 1)
}

// AddInput adds an input arc: firing t consumes weight tokens from p.
func (n *Net) AddInput(t TransID, p PlaceID, weight int) {
	n.checkArc(t, p, weight)
	n.trans[t].in = append(n.trans[t].in, Arc{Place: p, Weight: weight})
}

// AddOutput adds an output arc: completing t deposits weight tokens in p.
func (n *Net) AddOutput(t TransID, p PlaceID, weight int) {
	n.checkArc(t, p, weight)
	n.trans[t].out = append(n.trans[t].out, Arc{Place: p, Weight: weight})
}

func (n *Net) checkArc(t TransID, p PlaceID, weight int) {
	if int(t) < 0 || int(t) >= len(n.trans) {
		panic(fmt.Sprintf("petri: internal invariant violated: arc references invalid transition %d", t))
	}
	if int(p) < 0 || int(p) >= len(n.places) {
		panic(fmt.Sprintf("petri: internal invariant violated: arc references invalid place %d", p))
	}
	if weight <= 0 {
		panic(fmt.Sprintf("petri: internal invariant violated: non-positive arc weight %d", weight))
	}
}

// Places returns the number of places.
func (n *Net) Places() int { return len(n.places) }

// Transitions returns the number of transitions.
func (n *Net) Transitions() int { return len(n.trans) }

// PlaceName returns the name of p.
func (n *Net) PlaceName(p PlaceID) string { return n.places[p].name }

// TransName returns the name of t.
func (n *Net) TransName(t TransID) string { return n.trans[t].name }

// Validate checks structural sanity: every transition must have at least
// one input arc (otherwise it would fire unboundedly in zero time), and a
// duration that fits the 32 bits a stable state stores it in.
func (n *Net) Validate() error {
	if len(n.places) == 0 {
		return errors.New("petri: net has no places")
	}
	if len(n.trans) == 0 {
		return errors.New("petri: net has no transitions")
	}
	for i, t := range n.trans {
		if len(t.in) == 0 {
			return fmt.Errorf("petri: transition %d (%q) has no input arcs", i, t.name)
		}
		if t.duration > math.MaxInt32 {
			return fmt.Errorf("petri: transition %d (%q) lasts %d cycles, more than a stable state stores", i, t.name, t.duration)
		}
	}
	return nil
}
