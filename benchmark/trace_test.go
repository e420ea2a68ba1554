package main

import (
	"io"
	"math"
	"testing"
	"time"
)

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// Overlapping children, such as two points solved at once: the parent is
// charged its duration minus the union of its children, and each child
// its own duration.
func TestAttributeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: layerCampaign, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerMVA, Start: 10, End: 50},
		{ID: 2, Parent: 0, Layer: layerMVA, Start: 30, End: 70},
	}
	a := attribute(spans)
	approx(t, "campaign self", a.PerOpNs[layerCampaign], 100-60) // union of children is [10,70)
	approx(t, "mva", a.PerOpNs[layerMVA], 40+40)
	if a.Ops != 1 {
		t.Errorf("ops = %d, want 1", a.Ops)
	}
}

func TestAttributeNestedAndPerOp(t *testing.T) {
	spans := []span{
		// op 0: campaign ⊃ solvebest ⊃ mva; the mva estimate outlasts
		// solvebest, whose self time goes negative.
		{ID: 0, Parent: -1, Op: 0, Layer: layerCampaign, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: layerSolveBest, Start: 0, End: 60, Estimated: true},
		{ID: 2, Parent: 1, Op: 0, Layer: layerMVA, Start: 0, End: 80, Estimated: true},
		// op 1: no children.
		{ID: 3, Parent: -1, Op: 1, Layer: layerCampaign, Start: 200, End: 300},
		// a span never closed is ignored.
		{ID: 4, Parent: 3, Op: 1, Layer: layerMVA, Start: 210, End: -1},
	}
	a := attribute(spans)
	approx(t, "campaign per op", a.PerOpNs[layerCampaign], (40+100)/2.0)
	approx(t, "solvebest per op", a.PerOpNs[layerSolveBest], -20/2.0)
	approx(t, "mva per op", a.PerOpNs[layerMVA], 80/2.0)
	approx(t, "total", a.total(), 100)
	approx(t, "charged", a.charged(), 110)
	if a.Overran != 1 || a.Parents != 2 {
		t.Errorf("overran %d of %d parents, want 1 of 2", a.Overran, a.Parents)
	}
	if got := a.dominant(); got != layerCampaign {
		t.Errorf("dominant = %s, want campaign", got)
	}
}

// An estimate that outlasts its parent on one op and falls short on
// another nets out over the run: nothing is charged twice.
func TestAttributionNoiseCancelsOverTheRun(t *testing.T) {
	rec := &recorder{epoch: time.Now()}
	for op, est := range []float64{120, 80} {
		root := rec.begin(layerCampaign, op, -1, int64(1000*op))
		rec.end(root, int64(1000*op+100))
		rec.placeSeq(op, root, []string{layerSolveBest}, []float64{est})
	}
	a := attribute(rec.spans)
	approx(t, "campaign", a.PerOpNs[layerCampaign], 0)
	approx(t, "solvebest", a.PerOpNs[layerSolveBest], 100)
	approx(t, "charged", a.charged(), a.total())
}

// placeSeq lays estimates end to end from the parent's start, at full
// size even past the parent's end, and skips empty ones.
func TestPlaceSeqLaysEstimatesEndToEnd(t *testing.T) {
	rec := &recorder{epoch: time.Now()}
	root := rec.begin(layerSnoopd, 0, -1, 1000)
	rec.end(root, 1100)
	ids := rec.placeSeq(0, root, []string{layerAdmission, layerSolveCache, layerMVA}, []float64{100, 0, 100})
	if ids[1] != -1 {
		t.Errorf("empty estimate got span %d", ids[1])
	}
	a, c := rec.spans[ids[0]], rec.spans[ids[2]]
	if a.Start != 1000 || a.End != 1100 || c.Start != 1100 || c.End != 1200 || !a.Estimated || a.Parent != root {
		t.Errorf("placed %+v and %+v, want [1000,1100) and [1100,1200) under the root", a, c)
	}
}

// The decomposition check fails a full-size run when the layer self
// times, with negative ones read as zero, are off the untraced per-op time
// by more than the tolerance.
func TestDecompositionCheckFailsOnMismatch(t *testing.T) {
	a := attribution{Ops: 1, PerOpNs: map[string]float64{layerCampaign: -30, layerMVA: 130}}
	for _, c := range []struct {
		untraced float64
		fail     bool
	}{{120, false}, {100, true}, {150, false}, {160, true}} {
		rep := newReport()
		err := printAttribution(io.Discard, "w", a, c.untraced)
		rep.checkDecomposition(runConfig{}, err)
		if got := len(rep.Failures) > 0; got != c.fail {
			t.Errorf("untraced %v: failed %v, want %v (%v)", c.untraced, got, c.fail, rep.Failures)
		}
		small := newReport()
		small.checkDecomposition(runConfig{Small: true}, err)
		if len(small.Failures) != 0 {
			t.Errorf("untraced %v: a small run failed: %v", c.untraced, small.Failures)
		}
	}
}

func TestAttributionTolerance(t *testing.T) {
	for _, c := range []struct {
		sum, untraced float64
		ok            bool
	}{{100, 100, true}, {114, 100, true}, {86, 100, true}, {116, 100, false}, {84, 100, false}, {1, 0, false}} {
		if got := attributionOK(c.sum, c.untraced); got != c.ok {
			t.Errorf("attributionOK(%v, %v) = %v, want %v", c.sum, c.untraced, got, c.ok)
		}
	}
}
