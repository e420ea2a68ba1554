package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// The layers a span can be charged to, named after the repository's
// modules (README.md has the map from layer to code).
const (
	layerCampaign   = "campaign"
	layerSolveBest  = "solvebest"
	layerMVA        = "mva"
	layerSolveCache = "solvecache"
	layerGTPN       = "gtpnmodel"
	layerCacheSim   = "cachesim"
	layerSnoopd     = "snoopd"
	layerWire       = "wire"
	layerAdmission  = "admission"
)

var allLayers = []string{
	layerCampaign, layerSolveBest, layerMVA, layerSolveCache, layerGTPN, layerCacheSim,
	layerSnoopd, layerWire, layerAdmission,
}

// span is one interval at a layer boundary. Spans are recorded only in
// this benchmark, around calls into each layer's public functions; a span
// whose duration comes from a side probe rather than from the call it
// stands for is marked Estimated.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for the root span of an op
	Op        int    `json:"op"`
	Layer     string `json:"layer"`
	Start     int64  `json:"start_ns"` // offsets from the recorder's epoch
	End       int64  `json:"end_ns"`
	Estimated bool   `json:"estimated,omitempty"`
}

// recorder keeps one traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

// at converts a wall-clock instant to an epoch offset.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// begin opens a span starting at start and returns its id.
func (r *recorder) begin(layer string, op, parent int, start int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Start: start, End: -1})
	return id
}

// end closes span id at the given offset.
func (r *recorder) end(id int, at int64) { r.spans[id].End = at }

// placeSeq lays estimated sibling spans end to end inside parent, from
// its start: durs[i] (ns) becomes a span of layers[i]. The estimates are
// placed at full size even when together they outlast the parent; the
// attribution sets such overruns against the parent's self time over the
// whole run. It returns the new spans' ids (-1 for an empty one).
func (r *recorder) placeSeq(op, parent int, layers []string, durs []float64) []int {
	ids := make([]int, len(layers))
	at := r.spans[parent].Start
	for i, layer := range layers {
		ids[i] = -1
		d := int64(durs[i])
		if d <= 0 {
			continue
		}
		ids[i] = len(r.spans)
		r.spans = append(r.spans, span{ID: ids[i], Parent: parent, Op: op, Layer: layer, Start: at, End: at + d, Estimated: true})
		at += d
	}
	return ids
}

// attribution is the per-layer split of the ops' time.
type attribution struct {
	Ops     int
	PerOpNs map[string]float64 // layer → self time per op, negative where its children overran it
	// Overran of Parents spans with children had children that, together,
	// outlasted them.
	Overran, Parents int
}

// total is the per-op sum over layers: the traced op time.
func (a attribution) total() float64 {
	s := 0.0
	for _, v := range a.PerOpNs {
		s += v
	}
	return s
}

// charged is the per-op sum of the layers' self times with every negative
// one read as zero: the op time plus what the estimates claimed beyond
// their parents, over the run.
func (a attribution) charged() float64 {
	s := 0.0
	for _, v := range a.PerOpNs {
		s += max(0, v)
	}
	return s
}

// dominant names the layer charged the most time.
func (a attribution) dominant() string {
	best, bestV := "", math.Inf(-1)
	for _, l := range allLayers {
		if v, ok := a.PerOpNs[l]; ok && v > bestV {
			best, bestV = l, v
		}
	}
	return best
}

// attribute charges every span its self time — its duration minus the
// union of its children's intervals — and sums the self times by layer
// over the run. Children are not clipped to their parent: on an op where
// the estimates placed in a span outlast it, the span's self time is
// negative, and such per-op noise in the estimates cancels over the run.
// A layer total that stays negative means the estimates below it claim
// more time, over the whole run, than the layer took.
func attribute(spans []span) attribution {
	kids := map[int][][2]int64{}
	a := attribution{PerOpNs: map[string]float64{}}
	for _, s := range spans {
		switch {
		case s.End < s.Start:
			// never closed: the op was abandoned
		case s.Parent < 0:
			a.Ops++
		default:
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self := float64(s.End-s.Start) - unionLen(kids[s.ID])
		a.PerOpNs[s.Layer] += self
		if len(kids[s.ID]) > 0 {
			a.Parents++
			if self < 0 {
				a.Overran++
			}
		}
	}
	for l, v := range a.PerOpNs {
		a.PerOpNs[l] = v / float64(max(1, a.Ops))
	}
	return a
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) float64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, int64(math.MinInt64)
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += float64(x[1] - lo)
		}
		end = max(end, x[1])
	}
	return total
}

// printAttribution writes the per-layer table — self time per op and
// share — names the dominant layer, and checks the decomposition: the
// layer self times with negative ones read as zero — the traced op time
// plus what the estimates claimed beyond their parents — must be within
// attributionTolerance of the untraced time per op; if not, it returns
// the mismatch. The check catches estimates that, over the run, claim
// more time than the span they sit in took, and tracing that slows the
// ops. An estimate that claims too little leaves its time to the parent's
// self time, which no check can tell apart.
func printAttribution(w io.Writer, workload string, a attribution, untracedNs float64) error {
	fmt.Fprintf(w, "# %s: per-layer self time over %d traced ops\n", workload, a.Ops)
	total, charged := a.total(), a.charged()
	for _, l := range allLayers {
		v, ok := a.PerOpNs[l]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "#   %-11s %12.1f us/op %6.1f%%\n", l, v/1e3, 100*v/charged)
	}
	fmt.Fprintf(w, "# %s: dominant layer %s\n", workload, a.dominant())
	fmt.Fprintf(w, "# %s: on single ops, %d of %d spans were outlasted by the estimates inside them\n", workload, a.Overran, a.Parents)
	full, tracedNs := charged, total
	ok := attributionOK(full, untracedNs)
	fmt.Fprintf(w, "# %s: decomposition %.1f us/op (layer self times, negative ones as zero) vs untraced %.1f us/op: %+.1f%%, limit ±%.0f%%, %s\n",
		workload, full/1e3, untracedNs/1e3, 100*(full/untracedNs-1), 100*attributionTolerance, okOr(ok, "MISMATCH"))
	fmt.Fprintf(w, "# %s: tracing overhead %+.1f%% (traced %.1f us/op vs untraced %.1f us/op)\n",
		workload, 100*(tracedNs/untracedNs-1), tracedNs/1e3, untracedNs/1e3)
	if !ok {
		return fmt.Errorf("%s: layer decomposition %.1f us/op is %+.1f%% off the untraced %.1f us/op, beyond ±%.0f%%",
			workload, full/1e3, 100*(full/untracedNs-1), untracedNs/1e3, 100*attributionTolerance)
	}
	return nil
}

// attributionTolerance bounds |decomposition − untraced per-op time|
// relative to the untraced time.
const attributionTolerance = 0.15

func attributionOK(sum, untraced float64) bool {
	if untraced <= 0 {
		return false
	}
	d := sum/untraced - 1
	return d <= attributionTolerance && d >= -attributionTolerance
}

func okOr(ok bool, bad string) string {
	if ok {
		return "ok"
	}
	return bad
}

// writeSpans dumps spans as JSON to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
