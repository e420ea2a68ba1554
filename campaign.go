package snoopmva

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/journal"
	"snoopmva/internal/resilience"
)

// This file is the campaign runner: crash-safe execution of a design-space
// sweep — an arbitrary grid of (protocol, workload, N, budget) points —
// through the SolveBest degradation ladder, with bounded parallelism, a
// per-point deadline, a per-stage circuit breaker, and a journaled
// checkpoint/resume protocol (DESIGN.md §10).
//
// The durability contract: every completed point is appended to the
// journal (CRC-checksummed, fsynced) before the runner moves on, so a
// crash at any instant loses at most the points that were still in
// flight. Re-running with Resume skips journaled points and recomputes
// only the rest; because every model is deterministic given its seeds,
// the union is bitwise-identical to what an uninterrupted run would have
// journaled.

// CampaignPoint is one grid point of a design-space campaign.
type CampaignPoint struct {
	Protocol Protocol
	Workload Workload
	// N is the system size to solve for.
	N int
	// Budget bounds the SolveBest ladder at this point (zero value:
	// defaults; see Budget).
	Budget Budget
}

// CampaignSpec describes a campaign: the point grid plus execution
// policy. The zero values of the policy fields are usable defaults.
type CampaignSpec struct {
	// Points is the grid to solve. Point identity for journaling and
	// resume is the index into this slice, so a resumed spec must present
	// the same points in the same order (enforced by fingerprint).
	Points []CampaignPoint
	// Journal is the path of the result journal; "" runs without
	// durability (no resume possible).
	Journal string
	// Resume continues from an existing journal, skipping completed
	// points. Without it, a non-empty journal is an error rather than
	// being silently overwritten.
	Resume bool
	// Workers bounds solver parallelism (0 means GOMAXPROCS).
	Workers int
	// BreakerThreshold is the number of consecutive failures of a ladder
	// stage (across points) after which the stage is skipped for
	// subsequent points instead of re-burning its budget. 0 means 5;
	// negative disables the breaker.
	BreakerThreshold int
	// BreakerProbe, when positive, lets one probe attempt through per
	// this many skipped points, so a recovered stage can close its
	// circuit again. 0 never probes.
	BreakerProbe int
	// PointTimeout is the deadline of one point's solve: a point that
	// runs past it fails, with an error that says the deadline was
	// exceeded, and the campaign goes on. 0 means none.
	PointTimeout time.Duration
	// Cache, when non-nil, routes every point's solve through the given
	// CachedSolver: duplicate grid points (and campaigns re-run without a
	// journal) are served from the cache, and identical points racing in
	// different workers coalesce into one solve. Results are identical
	// either way — the models are deterministic — so journaling and resume
	// semantics are unchanged.
	Cache *CachedSolver
}

// PointResult is the journaled outcome of one campaign point.
type PointResult struct {
	// Index is the point's position in CampaignSpec.Points.
	Index int `json:"index"`
	// Attempts is the number of solve attempts made: 1 for every point a
	// run computes, since a point is not retried. Journals written when
	// points were retried may hold more.
	Attempts int `json:"attempts"`
	// Result carries the answer and its provenance (zero on a failed
	// point).
	Result
	// SkippedStages lists ladder stages the circuit breaker skipped for
	// this point (they were neither attempted nor counted as failures).
	SkippedStages []string `json:"skipped_stages,omitempty"`
	// Err is the error of a failed point ("" on success). Failed points
	// are journaled too: they are completed work.
	Err string `json:"err,omitempty"`
	// Resumed is true when the result was loaded from the journal rather
	// than computed by this run (not persisted; meaningful per run).
	Resumed bool `json:"-"`
}

// CampaignResult is the aggregate outcome of RunCampaign.
type CampaignResult struct {
	// Results holds one entry per spec point, in input order.
	Results []PointResult
	// Computed counts points solved by this run; Resumed counts points
	// loaded from the journal; Failed counts points (either kind) whose
	// Err is non-empty. Computed+Resumed == len(Results).
	Computed, Resumed, Failed int
	// OpenStages lists ladder stages whose circuit was open when the
	// campaign finished.
	OpenStages []string
}

// Journal record schema. Every line of the campaign journal is one of
// these, discriminated by Kind: a single "header" first (fingerprinting
// the spec so a resume with a different grid is refused), then "point"
// and "breaker" records in completion order.
const campaignJournalVersion = 1

type campaignRecord struct {
	Kind string `json:"kind"`
	// header fields
	Version     int    `json:"version,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Points      int    `json:"points,omitempty"`
	// point payload
	Point *PointResult `json:"point,omitempty"`
	// breaker state change
	Stage    string `json:"stage,omitempty"`
	Failures int    `json:"failures,omitempty"`
	Open     bool   `json:"open,omitempty"`
}

// errCampaignCrash marks the injected mid-run crash of the chaos tests.
var errCampaignCrash = errors.New("snoopmva: campaign: injected crash")

// SpecMismatchError reports a Resume against a journal written by a
// different campaign spec: the header fingerprint in the journal does not
// match the fingerprint of the grid being resumed, so continuing would
// silently mix results of different campaigns. It names both fingerprints
// so the caller can tell which side changed; errors.Is matches
// ErrInvalidInput.
type SpecMismatchError struct {
	// Path is the journal file that refused the resume.
	Path string
	// JournalFingerprint and JournalPoints describe the campaign the
	// journal was written by.
	JournalFingerprint string
	JournalPoints      int
	// SpecFingerprint and SpecPoints describe the campaign being resumed.
	SpecFingerprint string
	SpecPoints      int
}

func (e *SpecMismatchError) Error() string {
	return fmt.Sprintf("snoopmva: journal %s was written by a different campaign spec: journal fingerprint %s (%d points) != spec fingerprint %s (%d points); resume with the original grid, or start a fresh journal",
		e.Path, e.JournalFingerprint, e.JournalPoints, e.SpecFingerprint, e.SpecPoints)
}

// Unwrap classifies the mismatch as invalid input for errors.Is.
func (e *SpecMismatchError) Unwrap() error { return ErrInvalidInput }

// ladder stage keys, matching Method values.
const (
	stageGTPN = string(MethodGTPN)
	stageSim  = string(MethodSimulation)
	stageMVA  = string(MethodMVA)
)

// RunCampaign executes the campaign described by spec. Each point is
// solved once; points that fail are recorded with a non-empty Err and do
// not stop the campaign; RunCampaign itself returns an error only for an
// unusable spec or journal, or when ctx fires (ErrCanceled), in which
// case completed points are already durable in the journal and a Resume
// run picks up exactly where this one stopped.
func RunCampaign(ctx context.Context, spec CampaignSpec) (res CampaignResult, err error) {
	defer guard(&err)
	started := time.Now()
	defer func() {
		if err == nil {
			recordCampaign(res, time.Since(started))
		}
	}()
	if len(spec.Points) == 0 {
		return CampaignResult{}, fmt.Errorf("snoopmva: campaign has no points: %w", ErrInvalidInput)
	}
	if spec.Resume && spec.Journal == "" {
		return CampaignResult{}, fmt.Errorf("snoopmva: campaign Resume requires a Journal path: %w", ErrInvalidInput)
	}

	var breaker *resilience.Breaker
	if spec.BreakerThreshold >= 0 {
		threshold := spec.BreakerThreshold
		if threshold == 0 {
			threshold = 5
		}
		breaker = resilience.NewBreaker(threshold, spec.BreakerProbe)
	}

	completed := map[int]PointResult{}
	var cj *CampaignJournal
	if spec.Journal != "" {
		// The fingerprint serializes and hashes the whole grid; only a
		// journal header needs it.
		j, jerr := OpenCampaignJournal(spec.Journal, CampaignFingerprint(spec.Points), len(spec.Points), spec.Resume)
		if jerr != nil {
			return CampaignResult{}, jerr
		}
		cj = j
		defer cj.Close()
		completed = cj.Completed()
		if breaker != nil {
			breaker.Restore(cj.breakerStates())
		}
	}

	results := make([]PointResult, len(spec.Points))
	pending := make([]int, 0, len(spec.Points))
	for idx := range spec.Points {
		if pr, ok := completed[idx]; ok {
			pr.Resumed = true
			results[idx] = pr
		} else {
			pending = append(pending, idx)
		}
	}

	var (
		mu          sync.Mutex // serializes journal appends and crash checks
		recorded    int        // records appended by this run
		crashed     atomic.Bool
		lastBreaker = map[string]resilience.BreakerState{}
	)
	record := func(pr *PointResult) error {
		if cj == nil {
			// Each point owns its slot, and forEachIndex's Wait orders
			// every write before the results are read: nothing to lock.
			results[pr.Index] = *pr
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if crashed.Load() {
			return errCampaignCrash
		}
		// After one failed append, CampaignJournal latches itself off and
		// every later Append returns the original error, so a partial
		// record left by a failed rollback is never concatenated onto.
		if err := cj.Append(*pr); err != nil {
			return err
		}
		recorded++
		if h := faultinject.Hooks(); h != nil && h.CampaignCrash != nil && h.CampaignCrash(recorded) {
			crashed.Store(true)
			return errCampaignCrash
		}
		if breaker != nil {
			for _, st := range breaker.Snapshot() {
				if lastBreaker[st.Key] == st {
					continue
				}
				lastBreaker[st.Key] = st
				if err := cj.appendBreaker(st); err != nil {
					return err
				}
				recorded++
			}
		}
		results[pr.Index] = *pr
		return nil
	}

	var (
		firstErr error
		errOnce  sync.Once
	)
	// Once ctx fires or the injected crash latches, no further point
	// starts; in-flight state is preserved by the journal.
	stop := func() bool { return ctx.Err() != nil || crashed.Load() }
	var solver Solver = Direct
	if spec.Cache != nil {
		solver = spec.Cache
	}
	forEachIndex(len(pending), spec.Workers, stop, func(i int) {
		pr, perr := solveCampaignPoint(ctx, spec, solver, breaker, pending[i])
		if perr != nil {
			errOnce.Do(func() { firstErr = perr })
			return // aborted attempt: the point is not completed, resume will redo it
		}
		if rerr := record(&pr); rerr != nil {
			errOnce.Do(func() { firstErr = rerr })
		}
	})

	if cerr := ctx.Err(); cerr != nil {
		return CampaignResult{}, fmt.Errorf("snoopmva: campaign interrupted: %w", classify(cerr))
	}
	if firstErr != nil {
		return CampaignResult{}, fmt.Errorf("snoopmva: campaign: %w", firstErr)
	}

	res.Results = results
	for _, pr := range results {
		if pr.Resumed {
			res.Resumed++
		} else {
			res.Computed++
		}
		if pr.Err != "" {
			res.Failed++
		}
	}
	if breaker != nil {
		for _, st := range breaker.Snapshot() {
			if st.Open {
				res.OpenStages = append(res.OpenStages, st.Key)
			}
		}
	}
	return res, nil
}

// CampaignJournal is an open campaign checkpoint log: the crash-safe
// journal of DESIGN.md §10 with the campaign record schema (fingerprinted
// header, point records, breaker records) layered on top. It is the
// durability substrate shared by RunCampaign and the distributed
// coordinator (internal/dispatch, cmd/campaignd) — both write the same
// on-disk format, so their journals are mutually resumable for the same
// grid.
type CampaignJournal struct {
	jn        *journal.Journal
	completed map[int]PointResult
	breakers  map[string]resilience.BreakerState
	// appendErr latches the journal off after one failed append: the
	// rollback of a failed append can itself fail (e.g. on ENOSPC), and
	// appending after that would concatenate onto a partial record,
	// turning a recoverable torn tail into mid-file corruption.
	appendErr error
}

// OpenCampaignJournal opens (or creates) the campaign journal at path,
// verifies its header against the given spec fingerprint and point count,
// loads completed points, and compacts the journal back to a canonical
// record sequence via an atomic rotation (this also rewrites away any
// recovered torn tail).
//
// A fresh journal is stamped with a header carrying the fingerprint; a
// non-empty journal requires resume (otherwise it is refused rather than
// silently overwritten), and a resume against a journal written by a
// different grid fails with a *SpecMismatchError naming both fingerprints.
func OpenCampaignJournal(path, fingerprint string, points int, resume bool) (*CampaignJournal, error) {
	j, info, err := journal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snoopmva: campaign journal: %w", err)
	}
	fail := func(err error) (*CampaignJournal, error) {
		j.Close()
		return nil, err
	}
	if len(info.Payloads) == 0 {
		header := campaignRecord{Kind: "header", Version: campaignJournalVersion, Fingerprint: fingerprint, Points: points}
		if err := j.Append(header); err != nil {
			return fail(fmt.Errorf("snoopmva: campaign journal: %w", err))
		}
		return &CampaignJournal{jn: j, completed: map[int]PointResult{}, breakers: map[string]resilience.BreakerState{}}, nil
	}
	if !resume {
		return fail(fmt.Errorf("snoopmva: journal %s already holds a campaign; set Resume to continue it: %w",
			path, ErrInvalidInput))
	}
	records := make([]campaignRecord, 0, len(info.Payloads))
	for i, p := range info.Payloads {
		var rec campaignRecord
		if uerr := json.Unmarshal(p, &rec); uerr != nil {
			return fail(fmt.Errorf("snoopmva: campaign journal record %d: %w: %w", i, ErrInvalidInput, uerr))
		}
		records = append(records, rec)
	}
	head := records[0]
	if head.Kind != "header" || head.Version != campaignJournalVersion {
		return fail(fmt.Errorf("snoopmva: journal %s is not a version-%d campaign journal: %w",
			path, campaignJournalVersion, ErrInvalidInput))
	}
	if head.Fingerprint != fingerprint || head.Points != points {
		return fail(&SpecMismatchError{
			Path:               path,
			JournalFingerprint: head.Fingerprint,
			JournalPoints:      head.Points,
			SpecFingerprint:    fingerprint,
			SpecPoints:         points,
		})
	}
	completed := map[int]PointResult{}
	order := []int{} // first-seen completion order, for canonical rewrite
	breakerState := map[string]resilience.BreakerState{}
	for i, rec := range records[1:] {
		switch rec.Kind {
		case "point":
			if rec.Point == nil || rec.Point.Index < 0 || rec.Point.Index >= points {
				return fail(fmt.Errorf("snoopmva: campaign journal record %d: bad point index: %w", i+1, ErrInvalidInput))
			}
			if _, dup := completed[rec.Point.Index]; dup {
				continue // first record wins; duplicates are compacted away below
			}
			completed[rec.Point.Index] = *rec.Point
			order = append(order, rec.Point.Index)
		case "breaker":
			breakerState[rec.Stage] = resilience.BreakerState{Key: rec.Stage, Failures: rec.Failures, Open: rec.Open}
		default:
			return fail(fmt.Errorf("snoopmva: campaign journal record %d: unknown kind %q: %w", i+1, rec.Kind, ErrInvalidInput))
		}
	}
	// Canonical rewrite: header, then unique point records in first-seen
	// order, then the latest breaker states.
	canon := [][]byte{}
	appendRec := func(rec campaignRecord) error {
		b, merr := json.Marshal(rec)
		if merr != nil {
			return merr
		}
		canon = append(canon, b)
		return nil
	}
	if err := appendRec(head); err != nil {
		return fail(fmt.Errorf("snoopmva: campaign journal: %w", err))
	}
	for _, idx := range order {
		pr := completed[idx]
		if err := appendRec(campaignRecord{Kind: "point", Point: &pr}); err != nil {
			return fail(fmt.Errorf("snoopmva: campaign journal: %w", err))
		}
	}
	for _, st := range resilienceStatesSorted(breakerState) {
		if err := appendRec(campaignRecord{Kind: "breaker", Stage: st.Key, Failures: st.Failures, Open: st.Open}); err != nil {
			return fail(fmt.Errorf("snoopmva: campaign journal: %w", err))
		}
	}
	if err := j.Rotate(canon); err != nil {
		return fail(fmt.Errorf("snoopmva: campaign journal: %w", err))
	}
	return &CampaignJournal{jn: j, completed: completed, breakers: breakerState}, nil
}

// Completed returns the points already journaled, by index. The map is
// the journal's own state: callers must treat it as read-only.
func (cj *CampaignJournal) Completed() map[int]PointResult { return cj.completed }

// Append journals one completed point durably (fsynced before return).
// After one failed append the journal latches off and every later Append
// returns the original error, so a partial record left by a failed
// rollback is never concatenated onto.
func (cj *CampaignJournal) Append(pr PointResult) error {
	if cj.appendErr != nil {
		return cj.appendErr
	}
	if err := cj.jn.Append(campaignRecord{Kind: "point", Point: &pr}); err != nil {
		cj.appendErr = err
		return err
	}
	return nil
}

// appendBreaker journals one circuit-breaker state change, with the same
// latch discipline as Append. The distributed coordinator does not
// journal breaker records — its per-worker circuits track live processes,
// which a resumed coordinator re-probes from scratch — so this stays
// root-only.
func (cj *CampaignJournal) appendBreaker(st resilience.BreakerState) error {
	if cj.appendErr != nil {
		return cj.appendErr
	}
	if err := cj.jn.Append(campaignRecord{Kind: "breaker", Stage: st.Key, Failures: st.Failures, Open: st.Open}); err != nil {
		cj.appendErr = err
		return err
	}
	return nil
}

// breakerStates returns the journaled breaker states in sorted order.
func (cj *CampaignJournal) breakerStates() []resilience.BreakerState {
	return resilienceStatesSorted(cj.breakers)
}

// Close releases the underlying journal file. Appended records remain
// durable.
func (cj *CampaignJournal) Close() error { return cj.jn.Close() }

func resilienceStatesSorted(m map[string]resilience.BreakerState) []resilience.BreakerState {
	states := make([]resilience.BreakerState, 0, len(m))
	for _, st := range m {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Key < states[j].Key })
	return states
}

// solveCampaignPoint runs one grid point's SolveBest ladder once on
// solver, through breaker gating and, when spec.PointTimeout is set,
// under a deadline of that length. A non-nil error means ctx fired (the
// point stays pending); any other failure, the point's own deadline
// included, is reported inside the PointResult instead. Every model is
// deterministic, so a failed point is not tried again: it would fail the
// same way.
func solveCampaignPoint(ctx context.Context, spec CampaignSpec, solver Solver, breaker *resilience.Breaker, idx int) (PointResult, error) {
	pt := &spec.Points[idx]
	budget := pt.Budget
	var skipped []string
	if breaker != nil {
		if budget.MaxStates >= 0 && !breaker.Allow(stageGTPN) {
			budget.MaxStates = -1
			skipped = append(skipped, stageGTPN)
			campaignStageSkipped[stageGTPN].Inc()
		}
		if budget.SimCycles >= 0 && !breaker.Allow(stageSim) {
			budget.SimCycles = -1
			skipped = append(skipped, stageSim)
			campaignStageSkipped[stageSim].Inc()
		}
	}

	var (
		best Result
		err  error
	)
	if h := faultinject.Hooks(); h != nil && h.PointFault != nil {
		err = h.PointFault(idx)
	}
	if err == nil {
		pctx := ctx
		if spec.PointTimeout > 0 {
			var cancel context.CancelFunc
			pctx, cancel = context.WithTimeout(ctx, spec.PointTimeout)
			defer cancel()
		}
		best, err = solver.SolveBest(pctx, pt.Protocol, pt.Workload, pt.N, budget)
	}
	if err != nil && ctx.Err() != nil {
		return PointResult{}, err // aborted: not completed, not journaled
	}

	pr := PointResult{Index: idx, Attempts: 1, SkippedStages: skipped}
	if err != nil {
		pr.Err = err.Error()
		if breaker != nil {
			// The whole ladder failed: every stage the (trimmed) budget
			// enabled burned its budget without a result, so each counts as
			// a breaker failure — otherwise a persistently failing stage
			// would never trip the breaker on outright point failures and
			// its budget would be re-burned on every subsequent point.
			recordBreakerOutcomes(breaker, budget, "")
		}
		return pr, nil
	}
	pr.Result = best
	if breaker != nil {
		recordBreakerOutcomes(breaker, budget, best.Method)
	}
	return pr, nil
}

// recordBreakerOutcomes feeds one completed point's provenance into the
// breaker: every ladder stage enabled by the (possibly already
// breaker-trimmed) budget that precedes the successful method failed, the
// successful method's own stage succeeded, and stages after it were
// never attempted. An empty success means the point failed —
// every enabled stage, the MVA rung included, counts as a failure.
func recordBreakerOutcomes(breaker *resilience.Breaker, budget Budget, success Method) {
	stages := []struct {
		key     string
		enabled bool
	}{
		{stageGTPN, budget.MaxStates >= 0},
		{stageSim, budget.SimCycles >= 0},
		{stageMVA, true},
	}
	for _, st := range stages {
		if !st.enabled {
			continue
		}
		if st.key == string(success) {
			breaker.Success(st.key)
			return
		}
		breaker.Failure(st.key)
	}
}

// workloadKey is Workload without its JSON tags: the frozen form the
// journal fingerprint hashes, keyed by Go field name as journals have
// always been, so the API schema's tags can never move the hash.
type workloadKey struct {
	Tau, PPrivate, PSro, PSw, HPrivate, HSro, HSw, RPrivate, RSw       float64
	AmodPrivate, AmodSw, CsupplySro, CsupplySw, WbCsupply, RepP, RepSw float64
	FixedParams                                                        bool
}

// CampaignFingerprint hashes a point grid so a journal can refuse a
// resume under a different spec. It covers everything that changes
// results: protocol, workload, system size and budget of every point, in
// order — but not the execution policy (workers, point deadline,
// transport), so a campaign may be resumed under different parallelism,
// or by the distributed coordinator, without being refused.
func CampaignFingerprint(points []CampaignPoint) string {
	type pointKey struct {
		Protocol     string      `json:"protocol"`
		WriteThrough bool        `json:"write_through"`
		Workload     workloadKey `json:"workload"`
		N            int         `json:"n"`
		Budget       Budget      `json:"budget"`
	}
	keys := make([]pointKey, len(points))
	for i, pt := range points {
		keys[i] = pointKey{
			Protocol:     pt.Protocol.String(),
			WriteThrough: pt.Protocol.inner.WriteThroughBase,
			Workload:     workloadKey(pt.Workload),
			N:            pt.N,
			Budget:       pt.Budget,
		}
	}
	b, err := json.Marshal(keys)
	if err != nil {
		// Workload/Budget are plain value structs; Marshal cannot fail on
		// them short of an internal invariant violation.
		panic(fmt.Sprintf("snoopmva: internal invariant violated: campaign fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
