package mva

import (
	"math"
	"sync"

	"snoopmva/internal/workload"
)

// solveScratch is the pooled per-solve state of the fixed point: the
// derived model inputs plus every loop invariant the iterate needs, so a
// solve performs the derivation work once and the steady-state loop runs
// on precomputed scalars. One scratch serves a whole SolveContext call
// (all damping-ladder attempts reuse the derivation) and a whole
// SolveManyContext batch (consecutive sizes of the same model reuse it
// too; only the per-size interference quantities are recomputed).
//
// Pooling contract: a scratch is acquired at a public solve entry point
// and released before it returns — it never escapes a solve call, and no
// caller may hold one across solves. Results never alias scratch memory
// (Result is a value), so releasing is always safe.
type solveScratch struct {
	// Derived model inputs, cached per model.
	haveModel bool
	model     Model
	d         workload.Derived

	// Per-size interference quantities, cached per (model, n).
	haveN    bool
	n        int
	iv       workload.Interference
	lnPPrime float64 // log(iv.PPrime) for 0 < PPrime < 1; else unused
}

var scratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

func acquireScratch() *solveScratch {
	return scratchPool.Get().(*solveScratch)
}

func (sc *solveScratch) release() {
	// Invalidate the cached derivation so a pool reuse under a different
	// model can never read stale state even if a bug skipped prepare.
	sc.haveModel = false
	sc.haveN = false
	scratchPool.Put(sc)
}

// prepare derives the model inputs, reusing the cached derivation when
// the scratch was last prepared for an identical model (Model is a pure
// value, so equality is exact input identity).
func (sc *solveScratch) prepare(m Model) error {
	if sc.haveModel && sc.model == m {
		return nil
	}
	sc.haveModel = false
	sc.haveN = false
	d, err := m.Derive()
	if err != nil {
		return err
	}
	sc.d = d
	sc.model = m
	sc.haveModel = true
	return nil
}

// prepareN computes the per-size interference quantities, including the
// precomputed log of P' that lets the iterate evaluate the Appendix B
// geometric term with one Exp instead of a full Pow per iteration.
func (sc *solveScratch) prepareN(n int) {
	if sc.haveN && sc.n == n {
		return
	}
	sc.iv = sc.d.Interference(n)
	sc.lnPPrime = 0
	if sc.iv.PPrime > 0 && sc.iv.PPrime < 1 {
		sc.lnPPrime = math.Log(sc.iv.PPrime)
	}
	sc.n = n
	sc.haveN = true
}

// BusyProbability is equation (8)'s probability that an arrival finds a
// server busy, (U − U/N)/(1 − U/N) clamped to [0,1], for a population of
// nf customers. It serves the iterates of every MVA variant and has no
// error return: its preconditions (population >= 1, utilization >= 0)
// hold at every state the FixedPoint driver evaluates.
func BusyProbability(util, nf float64) float64 {
	if nf <= 1 {
		return 0
	}
	share := util / nf
	if share >= 1 {
		return 1
	}
	p := (util - share) / (1 - share)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
