package dispatch

// Chaos suite: the coordinator is subjected to worker death mid-grid, a
// network partition (via the faultinject.HTTPFault hook), and its own
// mid-run crash — and in every case the final result set must equal the
// uninterrupted local run's. The out-of-process variant (real snoopd
// processes, real SIGKILL) is scripts/dist_chaos_smoke.sh.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/faultinject"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
)

func TestChaosWorkerDeathMidGrid(t *testing.T) {
	points := testGrid(t, 24)
	want := localReference(t, points)

	// The victim dies — connections severed, listener closed, which is
	// what the coordinator sees of a SIGKILL — once it has served a few
	// solves. The healthy workers hold their solves until then, so the
	// kill lands mid-grid however the scheduler orders the dispatches.
	var served atomic.Int32
	killed := make(chan struct{})
	var victim *httptest.Server
	inner := snoopd.New(snoopd.Config{Registry: obs.NewRegistry()})
	victim = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		if r.URL.Path == routeSolveBest && served.Add(1) == 3 {
			close(killed)
			go func() {
				victim.CloseClientConnections()
				victim.Close()
			}()
		}
	}))
	t.Cleanup(victim.Close)
	ts := transportsFor(victim, heldWorker(t, killed), heldWorker(t, killed))

	cfg := quickCfg(ts)
	cfg.QuarantineAfter = 2
	cfg.BreakerThreshold = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run with a dying worker: %v", err)
	}
	assertSameResults(t, want, got)
	if served.Load() < 3 {
		t.Fatalf("victim served only %d solves; the kill never triggered", served.Load())
	}
	t.Logf("stats after worker death: %+v", stats)
}

func TestChaosPartitionQuarantinesWorker(t *testing.T) {
	points := testGrid(t, 16)
	want := localReference(t, points)

	cut, w2 := newWorker(t), newWorker(t)
	ts := transportsFor(cut, w2)
	cutAddr := ts[0].Addr()

	// Partition the first worker for the whole run: every request to it
	// fails without touching the network. Hold the healthy worker's
	// solves until the probes have quarantined it. The probe loop records
	// each probe before starting the next, so the third probe of the cut
	// worker means two failed probes (QuarantineAfter) are on record.
	var cutProbes atomic.Int32
	quarantined := make(chan struct{})
	restore := faultinject.Activate(&faultinject.Set{
		HTTPFault: func(addr, route string) (time.Duration, error) {
			if addr == cutAddr {
				if route == routeHealthz && cutProbes.Add(1) == 3 {
					close(quarantined)
				}
				return 0, errors.New("faultinject: partitioned")
			}
			if route == routeSolveBest {
				awaitOrBackstop(quarantined)
			}
			return 0, nil
		},
	})
	defer restore()

	cfg := quickCfg(ts)
	cfg.HealthInterval = 20 * time.Millisecond
	cfg.QuarantineAfter = 2
	cfg.BreakerThreshold = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run under partition: %v", err)
	}
	restore() // results must not depend on the hook staying active
	assertSameResults(t, want, got)
	if stats.Quarantined == 0 {
		t.Error("expected the partitioned worker to be quarantined")
	}
	if n := stats.WorkerCommits[cutAddr]; n != 0 {
		t.Errorf("partitioned worker committed %d points, want 0", n)
	}
	if len(stats.OpenWorkers) == 0 {
		t.Error("expected the partitioned worker among OpenWorkers")
	}
}

func TestChaosPartitionHealsAndWorkerReadmitted(t *testing.T) {
	points := testGrid(t, 20)
	want := localReference(t, points)

	cut, w2 := newWorker(t), newWorker(t)
	ts := transportsFor(cut, w2)
	cutAddr := ts[0].Addr()

	// Partition the first worker until the probes have quarantined it,
	// then heal. The coordinator must quarantine it, readmit it after the
	// heal, and may route tail work back to it. The probe loop records
	// each probe before starting the next: the cut worker's third probe
	// means two failed probes (QuarantineAfter) are on record, so it
	// heals the partition and succeeds itself; the fifth means that
	// success and the fourth probe's (readmitAfter, 2) are on record.
	// The healthy worker's solves wait for the readmission, so the grid
	// cannot finish first.
	var cutProbes atomic.Int32
	healed, readmitted := make(chan struct{}), make(chan struct{})
	restore := faultinject.Activate(&faultinject.Set{
		HTTPFault: func(addr, route string) (time.Duration, error) {
			if addr == cutAddr && route == routeHealthz {
				switch cutProbes.Add(1) {
				case 3:
					close(healed)
				case 5:
					close(readmitted)
				}
			}
			if addr == cutAddr {
				select {
				case <-healed:
				default:
					return 0, errors.New("faultinject: partitioned")
				}
			} else if route == routeSolveBest {
				awaitOrBackstop(readmitted)
			}
			return 0, nil
		},
	})
	defer restore()

	cfg := quickCfg(ts)
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.QuarantineAfter = 2
	cfg.BreakerThreshold = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, stats, err := c.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("Run across partition-and-heal: %v", err)
	}
	restore()
	assertSameResults(t, want, got)
	if stats.Quarantined == 0 {
		t.Error("expected a quarantine while partitioned")
	}
	if stats.Readmitted == 0 {
		t.Error("expected a readmission after the partition healed")
	}
}

func TestChaosCoordinatorCrashResume(t *testing.T) {
	points := testGrid(t, 16)
	want := localReference(t, points)
	journal := filepath.Join(t.TempDir(), "dist.journal")

	w1, w2, w3 := newWorker(t), newWorker(t), newWorker(t)
	ts := transportsFor(w1, w2, w3)

	// Crash the coordinator after the 5th journaled record — abrupt stop,
	// journal unfinalized — exactly what kill -9 on campaignd leaves.
	restore := faultinject.Activate(&faultinject.Set{
		CampaignCrash: func(recorded int) bool { return recorded >= 5 },
	})
	c, err := New(Config{Transports: ts, Journal: journal,
		HealthInterval: -1, PointTimeout: 5 * time.Second})
	if err != nil {
		restore()
		t.Fatalf("New: %v", err)
	}
	_, _, err = c.Run(context.Background(), points)
	restore()
	if !errors.Is(err, errCrash) {
		t.Fatalf("crashed run: err = %v, want the injected crash", err)
	}

	// Resume with a different pool shape (two workers) — the journal is
	// the contract, not the worker set.
	c2, err := New(Config{Transports: ts[:2], Journal: journal, Resume: true,
		HealthInterval: -1, PointTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New (resume): %v", err)
	}
	got, _, err := c2.Run(context.Background(), points)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got.Resumed < 5 {
		t.Errorf("resumed = %d, want >= 5 points loaded from the journal", got.Resumed)
	}
	if got.Resumed+got.Computed != len(points) {
		t.Errorf("resumed+computed = %d, want %d", got.Resumed+got.Computed, len(points))
	}
	assertSameResults(t, want, got)
}

func TestChaosResumeInteropWithLocalRunner(t *testing.T) {
	// A journal begun by the distributed coordinator must be resumable by
	// the local runner (and produce the same result set) — the two
	// runners share one journal format and one fingerprint.
	points := testGrid(t, 12)
	want := localReference(t, points)
	journal := filepath.Join(t.TempDir(), "interop.journal")

	restore := faultinject.Activate(&faultinject.Set{
		CampaignCrash: func(recorded int) bool { return recorded >= 4 },
	})
	c, err := New(Config{Transports: transportsFor(newWorker(t), newWorker(t)),
		Journal: journal, HealthInterval: -1, PointTimeout: 5 * time.Second})
	if err != nil {
		restore()
		t.Fatalf("New: %v", err)
	}
	_, _, err = c.Run(context.Background(), points)
	restore()
	if !errors.Is(err, errCrash) {
		t.Fatalf("crashed run: err = %v, want the injected crash", err)
	}

	got, err := snoopmva.RunCampaign(context.Background(), snoopmva.CampaignSpec{
		Points: points, Journal: journal, Resume: true, Workers: 1, BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatalf("local resume of a distributed journal: %v", err)
	}
	if got.Resumed < 4 {
		t.Errorf("resumed = %d, want >= 4", got.Resumed)
	}
	assertSameResults(t, want, got)
}

// awaitOrBackstop blocks until release closes or a 10s backstop passes,
// so a forced scenario that never happens fails on its test's own
// assertions instead of hanging.
func awaitOrBackstop(release <-chan struct{}) {
	select {
	case <-release:
	case <-time.After(10 * time.Second):
	}
}

// heldWorker is a healthy worker whose solves wait (awaitOrBackstop)
// until release closes; health probes pass straight through.
func heldWorker(t *testing.T, release <-chan struct{}) *httptest.Server {
	t.Helper()
	inner := snoopd.New(snoopd.Config{Registry: obs.NewRegistry()})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == routeSolveBest {
			awaitOrBackstop(release)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}
