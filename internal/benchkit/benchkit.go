// Package benchkit measures the solve-layer performance baseline: the
// wall-clock suites the checked-in BENCH_solver.json reference run is
// built from, plus the allocation series the benchguard regression gate
// compares against it. cmd/bench is the thin writer over Run; guard.go
// holds the comparison logic cmd/benchguard applies between a baseline
// and a candidate report.
//
// Four wall-clock suites cover the paths the high-throughput layer
// (DESIGN.md §11) is built around:
//
//   - solve: cold MVA fixed-point latency (the unit everything multiplies)
//   - sweep: warm-started sweep versus per-size cold solves — iteration
//     and wall-clock savings
//   - cache: memoized re-solve latency versus cold, for both the plain
//     MVA path and the GTPN-backed SolveBest path (the headline ≥100×)
//   - campaign: design-space grid throughput in points/sec, with and
//     without a shared CachedSolver
//
// The allocation suite measures allocs/op and bytes/op on the paths the
// //snoop:hotpath annotations budget: the cold solve, the memoized cache
// hit, and the canonical key encoding.
package benchkit

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"snoopmva"
	"snoopmva/internal/solvecache"
	"snoopmva/internal/stats"
)

// Report is one full benchmark run. BENCH_solver.json at the repository
// root is the checked-in reference Report.
type Report struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`

	Solve    SolveReport    `json:"solve"`
	Sweep    SweepReport    `json:"sweep"`
	Cache    CacheReport    `json:"cache"`
	Campaign CampaignReport `json:"campaign"`
	// Allocs is absent from reports generated before the allocation gate
	// existed; benchguard skips the allocation checks for such baselines.
	Allocs *AllocReport `json:"allocs,omitempty"`
}

// SolveReport is the cold-solve latency suite.
type SolveReport struct {
	Config       string  `json:"config"`
	Reps         int     `json:"reps"`
	MedianNs     float64 `json:"median_ns"`
	P95Ns        float64 `json:"p95_ns"`
	SolvesPerSec float64 `json:"solves_per_sec"`
}

// SweepReport compares the warm-started sweep against cold per-size
// solves.
type SweepReport struct {
	Sizes              string  `json:"sizes"`
	ColdNs             int64   `json:"cold_ns"`
	WarmNs             int64   `json:"warm_ns"`
	ColdIterations     int     `json:"cold_iterations"`
	WarmIterations     int     `json:"warm_iterations"`
	IterationsSavedPct float64 `json:"iterations_saved_pct"`
	WarmPointsPerSec   float64 `json:"warm_points_per_sec"`
}

// CacheReport is the memoized re-solve latency suite.
type CacheReport struct {
	MVAColdNs   float64 `json:"mva_cold_ns"`
	MVAHitNs    float64 `json:"mva_hit_ns"`
	MVASpeedup  float64 `json:"mva_speedup"`
	BestColdNs  float64 `json:"best_cold_ns"`
	BestHitNs   float64 `json:"best_hit_ns"`
	BestSpeedup float64 `json:"best_speedup"`
}

// CampaignReport is the design-space grid throughput suite.
type CampaignReport struct {
	Points            int     `json:"points"`
	UncachedNs        int64   `json:"uncached_ns"`
	CachedNs          int64   `json:"cached_ns"`
	UncachedPtsPerSec float64 `json:"uncached_points_per_sec"`
	CachedPtsPerSec   float64 `json:"cached_points_per_sec"`
	CacheHitRatePct   float64 `json:"cache_hit_rate_pct"`
	CachedRunIsRepeat bool    `json:"cached_run_is_repeat"`
}

// AllocSeries is the allocation cost of one operation on one path.
type AllocSeries struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// AllocReport carries the allocation series of the //snoop:hotpath
// budgeted paths.
type AllocReport struct {
	Runs int `json:"runs"`
	// Solve is the cold MVA solve (same configuration as the latency
	// suite).
	Solve AllocSeries `json:"solve"`
	// CacheHit is the memoized re-solve: key encoding plus a shard
	// lookup.
	CacheHit AllocSeries `json:"cache_hit"`
	// KeyEncode is the canonical key encoding alone — a representative
	// 30-field build through the pooled solvecache.KeyBuilder API.
	KeyEncode AllocSeries `json:"key_encode"`
	// SolveBatch is one warm batchPoints-point batch through the cached
	// SolveManyContext (per batch call, not per point). A pointer so baselines
	// generated before the batched API decode as nil and benchguard skips
	// the series instead of gating against a phantom zero.
	SolveBatch *AllocSeries `json:"solve_batch,omitempty"`
}

// batchPoints is the batch size of the solve_batch allocation series.
const batchPoints = 16

// Run executes every suite and assembles the Report. quick shrinks
// repetitions and grids to CI size.
func Run(quick bool) (*Report, error) {
	rep := &Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	var err error
	if rep.Solve, err = benchSolve(quick); err != nil {
		return nil, err
	}
	if rep.Sweep, err = benchSweep(quick); err != nil {
		return nil, err
	}
	if rep.Cache, err = benchCache(quick); err != nil {
		return nil, err
	}
	if rep.Campaign, err = benchCampaign(quick); err != nil {
		return nil, err
	}
	if rep.Allocs, err = benchAllocs(quick); err != nil {
		return nil, err
	}
	return rep, nil
}

// benchSolve times the cold MVA fixed point — the paper's Section 3 claim
// is that this path is cheap enough to embed in design loops.
// Quick mode does not shrink this suite: one solve is ~10µs, so the full
// 2000 reps cost ~20ms per pass, and a smaller sample's p95 is far too
// noisy to gate on. Best-of-3 passes for the same reason the sweep suite
// uses it — a single pass is at the mercy of scheduler and frequency
// drift, and benchguard compares these numbers under a 5% budget.
func benchSolve(quick bool) (SolveReport, error) {
	reps := 2000
	p, w, n := snoopmva.WriteOnce(), snoopmva.AppendixA(snoopmva.Sharing5), 16
	var med, p95 float64
	for round := 0; round < 3; round++ {
		samples, err := sample(reps, func() error {
			_, serr := snoopmva.Solve(p, w, n)
			return serr
		})
		if err != nil {
			return SolveReport{}, err
		}
		m, err := stats.Quantile(samples, 0.5)
		if err != nil {
			return SolveReport{}, err
		}
		q, err := stats.Quantile(samples, 0.95)
		if err != nil {
			return SolveReport{}, err
		}
		if round == 0 || m < med {
			med = m
		}
		if round == 0 || q < p95 {
			p95 = q
		}
	}
	return SolveReport{
		Config:       "WriteOnce / Sharing5 / N=16",
		Reps:         reps,
		MedianNs:     med,
		P95Ns:        p95,
		SolvesPerSec: 1e9 / med,
	}, nil
}

// benchSweep compares the warm-started sweep (each size seeded from the
// previous converged state) against independent cold solves over the same
// sizes.
func benchSweep(quick bool) (SweepReport, error) {
	hi := 64
	if quick {
		hi = 32
	}
	ns := make([]int, hi)
	for i := range ns {
		ns[i] = i + 1
	}
	p, w := snoopmva.Illinois(), snoopmva.AppendixA(snoopmva.Sharing20)

	// Best-of-3 wall times: a single pass over a millisecond-scale sweep is
	// at the mercy of the scheduler, and this file is a checked-in baseline.
	var coldNs, warmNs int64
	var coldIters, warmIters int
	for round := 0; round < 3; round++ {
		iters := 0
		start := time.Now()
		for _, n := range ns {
			r, err := snoopmva.Solve(p, w, n)
			if err != nil {
				return SweepReport{}, err
			}
			iters += r.Iterations
		}
		if el := time.Since(start).Nanoseconds(); round == 0 || el < coldNs {
			coldNs = el
		}
		coldIters = iters

		iters = 0
		start = time.Now()
		warm, err := snoopmva.Sweep(p, w, ns)
		if err != nil {
			return SweepReport{}, err
		}
		el := time.Since(start).Nanoseconds()
		for _, r := range warm {
			iters += r.Iterations
		}
		if round == 0 || el < warmNs {
			warmNs = el
		}
		warmIters = iters
	}
	return SweepReport{
		Sizes:              fmt.Sprintf("1..%d", hi),
		ColdNs:             coldNs,
		WarmNs:             warmNs,
		ColdIterations:     coldIters,
		WarmIterations:     warmIters,
		IterationsSavedPct: 100 * float64(coldIters-warmIters) / float64(coldIters),
		WarmPointsPerSec:   float64(len(ns)) * 1e9 / float64(warmNs),
	}, nil
}

// benchCache times the memoized hit path against the cold solve it
// replaces, for the µs-scale MVA path and the ms-scale GTPN-backed
// SolveBest path.
func benchCache(quick bool) (CacheReport, error) {
	hitReps := 10000
	if quick {
		hitReps = 1000
	}
	p, w := snoopmva.WriteOnce(), snoopmva.AppendixA(snoopmva.Sharing5)
	ctx := context.Background()

	// Plain MVA path.
	cs := snoopmva.NewCachedSolver(0)
	coldSamples, err := sample(200, func() error {
		cs.Purge()
		_, serr := cs.Solve(p, w, 16)
		return serr
	})
	if err != nil {
		return CacheReport{}, err
	}
	mvaCold, err := stats.Quantile(coldSamples, 0.5)
	if err != nil {
		return CacheReport{}, err
	}
	if _, err := cs.Solve(p, w, 16); err != nil {
		return CacheReport{}, err
	}
	// Hit loops finish in about a millisecond, a window where one
	// scheduler blip moves the mean by tens of percent — best-of-3, like
	// every other sub-second measurement here.
	var mvaHit float64
	for round := 0; round < 3; round++ {
		hitStart := time.Now()
		for i := 0; i < hitReps; i++ {
			if _, err := cs.Solve(p, w, 16); err != nil {
				return CacheReport{}, err
			}
		}
		el := float64(time.Since(hitStart).Nanoseconds()) / float64(hitReps)
		if round == 0 || el < mvaHit {
			mvaHit = el
		}
	}

	// GTPN-backed SolveBest path: one cold ladder (the expensive
	// comparator), then the hit loop.
	cs.Purge()
	budget := snoopmva.Budget{SimCycles: -1}
	bestStart := time.Now()
	if _, err := cs.SolveBest(ctx, p, w, 4, budget); err != nil {
		return CacheReport{}, err
	}
	bestCold := float64(time.Since(bestStart).Nanoseconds())
	var bestHit float64
	for round := 0; round < 3; round++ {
		bestStart = time.Now()
		for i := 0; i < hitReps; i++ {
			if _, err := cs.SolveBest(ctx, p, w, 4, budget); err != nil {
				return CacheReport{}, err
			}
		}
		el := float64(time.Since(bestStart).Nanoseconds()) / float64(hitReps)
		if round == 0 || el < bestHit {
			bestHit = el
		}
	}

	return CacheReport{
		MVAColdNs:   mvaCold,
		MVAHitNs:    mvaHit,
		MVASpeedup:  mvaCold / mvaHit,
		BestColdNs:  bestCold,
		BestHitNs:   bestHit,
		BestSpeedup: bestCold / bestHit,
	}, nil
}

// benchCampaign drives the full campaign runner (watchdog, retry, journal
// machinery disabled) over a protocol × size grid, then repeats the grid
// through a shared cache — the steady-state of an interactive design
// session revisiting configurations.
func benchCampaign(quick bool) (CampaignReport, error) {
	hi := 32
	if quick {
		hi = 12
	}
	w := snoopmva.AppendixA(snoopmva.Sharing5)
	var points []snoopmva.CampaignPoint
	for _, p := range snoopmva.Protocols() {
		for n := 1; n <= hi; n++ {
			points = append(points, snoopmva.CampaignPoint{
				Protocol: p, Workload: w, N: n,
				Budget: snoopmva.Budget{MaxStates: -1, SimCycles: -1},
			})
		}
	}
	ctx := context.Background()

	// Grid passes are milliseconds each; best-of-3 for the same reason as
	// the other suites.
	var uncachedNs int64
	for round := 0; round < 3; round++ {
		uncachedStart := time.Now()
		res, err := snoopmva.RunCampaign(ctx, snoopmva.CampaignSpec{Points: points})
		if err != nil {
			return CampaignReport{}, err
		}
		el := time.Since(uncachedStart).Nanoseconds()
		if res.Failed > 0 {
			return CampaignReport{}, fmt.Errorf("bench campaign: %d points failed", res.Failed)
		}
		if round == 0 || el < uncachedNs {
			uncachedNs = el
		}
	}

	cache := snoopmva.NewCachedSolver(0)
	// Warm pass populates the cache; the timed passes are repeats.
	if _, err := snoopmva.RunCampaign(ctx, snoopmva.CampaignSpec{Points: points, Cache: cache}); err != nil {
		return CampaignReport{}, err
	}
	var cachedNs int64
	for round := 0; round < 3; round++ {
		cachedStart := time.Now()
		if _, err := snoopmva.RunCampaign(ctx, snoopmva.CampaignSpec{Points: points, Cache: cache}); err != nil {
			return CampaignReport{}, err
		}
		el := time.Since(cachedStart).Nanoseconds()
		if round == 0 || el < cachedNs {
			cachedNs = el
		}
	}

	return CampaignReport{
		Points:            len(points),
		UncachedNs:        uncachedNs,
		CachedNs:          cachedNs,
		UncachedPtsPerSec: float64(len(points)) * 1e9 / float64(uncachedNs),
		CachedPtsPerSec:   float64(len(points)) * 1e9 / float64(cachedNs),
		CacheHitRatePct:   100 * cache.Stats().HitRate(),
		CachedRunIsRepeat: true,
	}, nil
}

// benchAllocs measures allocs/op and bytes/op on the hotpath-budgeted
// paths, testing.AllocsPerRun-style: GOMAXPROCS pinned to 1, one warm-up
// call, then MemStats deltas over the measured loop.
func benchAllocs(quick bool) (*AllocReport, error) {
	runs := 1000
	if quick {
		runs = 200
	}
	p, w := snoopmva.WriteOnce(), snoopmva.AppendixA(snoopmva.Sharing5)

	var solveErr error
	solve := measureAllocs(runs, func() {
		if _, err := snoopmva.Solve(p, w, 16); err != nil && solveErr == nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		return nil, solveErr
	}

	cs := snoopmva.NewCachedSolver(0)
	if _, err := cs.Solve(p, w, 16); err != nil {
		return nil, err
	}
	var hitErr error
	hit := measureAllocs(runs, func() {
		if _, err := cs.Solve(p, w, 16); err != nil && hitErr == nil {
			hitErr = err
		}
	})
	if hitErr != nil {
		return nil, hitErr
	}

	var sink uint64
	key := measureAllocs(runs, func() { sink += encodeKeyFingerprint() })
	_ = sink

	// Batched path: a warm batch through the cached SolveManyContext — pooled key
	// probes plus result-slice assembly, the steady state of a repeated
	// design-space sweep.
	inputs := make([]snoopmva.SolveInput, batchPoints)
	for i := range inputs {
		inputs[i] = snoopmva.SolveInput{Protocol: p, Workload: w, N: i + 1}
	}
	if _, err := cs.SolveManyContext(context.Background(), inputs); err != nil {
		return nil, err
	}
	var batchErr error
	batch := measureAllocs(runs/batchPoints+1, func() {
		if _, err := cs.SolveManyContext(context.Background(), inputs); err != nil && batchErr == nil {
			batchErr = err
		}
	})
	if batchErr != nil {
		return nil, batchErr
	}

	return &AllocReport{Runs: runs, Solve: solve, CacheHit: hit, KeyEncode: key, SolveBatch: &batch}, nil
}

// encodeKeyFingerprint builds a representative solver key — the field
// count and type mix of a real solve-key encoding — through the pooled
// acquire/append/fingerprint/release path the cache's hit probe uses,
// and returns its fingerprint.
func encodeKeyFingerprint() uint64 {
	b := solvecache.AcquireKey()
	b.String("bench")
	for i := 0; i < 8; i++ {
		b.Float(1.5 + float64(i))
	}
	for i := 0; i < 8; i++ {
		b.Int(int64(i))
	}
	for i := 0; i < 6; i++ {
		b.Bool(i%2 == 0)
	}
	b.Uint(42)
	sum := b.Fingerprint()
	b.Release()
	return sum
}

// allocWindows is how many independent measurement windows measureAllocs
// takes the minimum over.
const allocWindows = 5

// measureAllocs pins to one proc and measures MemStats deltas over
// several independent windows of runs calls each, taking the cheapest
// window: background goroutines (obs metric scrapes, GC bookkeeping) can
// allocate mid-window, and such pollution only ever reads high, so the
// minimum is the true cost of the measured path. Each window starts from
// a forced-GC settle — retiring floating garbage so collector activity
// triggered by a previous window cannot land in this one — followed by a
// warm-up call that repopulates the sync.Pools the collector just
// drained. The alloc count is truncated to an integer exactly as
// testing.AllocsPerRun does: a stray runtime allocation over a whole
// window must not read as a fractional per-op regression under the
// zero-budget gate.
func measureAllocs(runs int, f func()) AllocSeries {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var best AllocSeries
	for w := 0; w < allocWindows; w++ {
		runtime.GC()
		f() // refill the pools the collector just emptied
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		win := AllocSeries{
			AllocsPerOp: math.Floor(float64(after.Mallocs-before.Mallocs) / float64(runs)),
			BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		}
		if w == 0 || win.AllocsPerOp < best.AllocsPerOp ||
			(win.AllocsPerOp <= best.AllocsPerOp && win.BytesPerOp < best.BytesPerOp) {
			best = win
		}
	}
	return best
}

// sample runs f reps times and returns the per-call wall time in
// nanoseconds.
func sample(reps int, f func() error) ([]float64, error) {
	out := make([]float64, reps)
	for i := range out {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(start).Nanoseconds())
	}
	return out, nil
}
