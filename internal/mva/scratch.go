package mva

import (
	"math"
	"sync"

	"snoopmva/internal/workload"
)

// solveScratch is the pooled per-solve state of the fixed point: the
// derived model inputs plus every loop invariant the iterate needs, so a
// solve performs the derivation work once and the steady-state loop runs
// on precomputed scalars. One scratch serves a whole SolveContext call:
// all damping-ladder attempts reuse the derivation.
//
// The derivation outlives the solve: release keeps it, so the next solve
// that draws this scratch from the pool under a bitwise-identical model
// (the next point of a speedup curve, typically) skips Derive. prepare
// compares the model bit for bit, so no other model ever reads it.
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
	scratchPool.Put(sc)
}

// prepare derives the model inputs, reusing the cached derivation when
// the scratch was last prepared for a bitwise-identical model.
func (sc *solveScratch) prepare(m *Model) error {
	if sc.haveModel && sameModel(&sc.model, m) {
		return nil
	}
	sc.haveModel = false
	sc.haveN = false
	d, err := m.Derive()
	if err != nil {
		return err
	}
	sc.d = d
	sc.model = *m
	sc.haveModel = true
	return nil
}

// sameModel reports whether a and b are the same model input bit for
// bit. Floats compare by Float64bits, not ==, so a −0 field never reuses
// the derivation of a +0 one (nor a NaN that of another NaN): the
// derivation is a function of the bits, and reuse must be exactly as if
// Derive had run again.
func sameModel(a, b *Model) bool {
	if a.Mods != b.Mods || a.RawParams != b.RawParams || a.WriteThroughBase != b.WriteThroughBase ||
		a.Timing.BlockSize != b.Timing.BlockSize {
		return false
	}
	p, q := &a.Workload, &b.Workload
	s, t := &a.Timing, &b.Timing
	for _, f := range [...][2]float64{
		{p.Tau, q.Tau}, {p.PPrivate, q.PPrivate}, {p.PSro, q.PSro}, {p.PSw, q.PSw},
		{p.HPrivate, q.HPrivate}, {p.HSro, q.HSro}, {p.HSw, q.HSw},
		{p.RPrivate, q.RPrivate}, {p.RSw, q.RSw}, {p.AmodPrivate, q.AmodPrivate}, {p.AmodSw, q.AmodSw},
		{p.CsupplySro, q.CsupplySro}, {p.CsupplySw, q.CsupplySw}, {p.WbCsupply, q.WbCsupply},
		{p.RepP, q.RepP}, {p.RepSw, q.RepSw},
		{s.TSupply, t.TSupply}, {s.TWrite, t.TWrite}, {s.TInval, t.TInval}, {s.DMem, t.DMem}, {s.TBlock, t.TBlock},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return true
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

// busyProbability is equation (8)'s probability that an arrival finds a
// server busy, (U − U/N)/(1 − U/N) clamped to [0,1], for a population of
// nf customers. It serves both the bus and the memory equation and has no
// error return: its preconditions (population >= 1, utilization >= 0)
// hold at every state the fixedPoint driver evaluates.
func busyProbability(util, nf float64) float64 {
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
