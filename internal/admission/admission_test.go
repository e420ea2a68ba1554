package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva/internal/obs"
)

// testClock is a manually advanced clock shared by a test and its
// controller.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func mustShed(t *testing.T, err error, want Reason) *ShedError {
	t.Helper()
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShedError(%v), got %v", want, err)
	}
	if se.Reason != want {
		t.Fatalf("shed reason = %v, want %v", se.Reason, want)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("shed RetryAfter = %v, want > 0", se.RetryAfter)
	}
	return se
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                     // MaxInflight required
		{MaxInflight: -1},                      // negative
		{MaxInflight: 2, Target: -time.Second}, // negative target
		{MaxInflight: 2, RatePerClient: -1},    // negative rate
		{MaxInflight: 2, BrownoutShedPct: 1.0}, // pct outside [0,1)
		{MaxInflight: 2, MaxQueueWait: -1},     // negative wait
	}
	for i, cfg := range bad {
		cfg.Registry = obs.NewRegistry()
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: want error, got nil", i)
		}
	}
	if _, err := New(Config{MaxInflight: 4, Registry: obs.NewRegistry()}); err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
}

func TestAdmitReleaseFastPath(t *testing.T) {
	c := newController(t, Config{MaxInflight: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := c.Admit(ctx, "", time.Time{}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	st := c.State()
	if st.Inflight != 2 || st.Admitted != 2 {
		t.Fatalf("state = %+v, want inflight=2 admitted=2", st)
	}
	c.Release(time.Millisecond)
	c.Release(time.Millisecond)
	if st := c.State(); st.Inflight != 0 {
		t.Fatalf("inflight = %d after releases, want 0", st.Inflight)
	}
}

func TestQueueFullSheds(t *testing.T) {
	// QueueLimit -1 means no queue at all: the second concurrent
	// request sheds immediately.
	c := newController(t, Config{MaxInflight: 1, QueueLimit: -1})
	ctx := context.Background()
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	mustShed(t, c.Admit(ctx, "", time.Time{}), ReasonQueueFull)
	c.Release(time.Millisecond)
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestQueueHandsSlotToOldestWaiter(t *testing.T) {
	c := newController(t, Config{MaxInflight: 1, QueueLimit: 4, MaxQueueWait: 5 * time.Second})
	ctx := context.Background()
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		// Enqueue strictly in order: wait until the previous waiter is
		// visibly queued before starting the next.
		want := i
		for {
			if c.State().QueueDepth == want-1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Admit(ctx, "", time.Time{}); err != nil {
				t.Errorf("queued admit %d: %v", want, err)
				return
			}
			order <- want
			c.Release(time.Millisecond)
		}()
	}
	for c.State().QueueDepth != 2 {
		time.Sleep(time.Millisecond)
	}
	c.Release(time.Millisecond) // hand the slot to waiter 1
	wg.Wait()
	close(order)
	var got []int
	for v := range order {
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("grant order = %v, want [1 2]", got)
	}
}

func TestDeadlineShedsImmediately(t *testing.T) {
	// MaxInflight 1, Target 100ms → initial EWMA 100ms, so a queued
	// request expects ~100ms of wait. A 10ms deadline cannot make it:
	// shed with no blocking.
	c := newController(t, Config{MaxInflight: 1, Target: 100 * time.Millisecond, QueueLimit: 4})
	ctx := context.Background()
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	start := time.Now()
	mustShed(t, c.Admit(ctx, "", time.Now().Add(10*time.Millisecond)), ReasonDeadline)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("deadline shed blocked for %v, want immediate", elapsed)
	}
}

func TestQueuedWaiterTimesOut(t *testing.T) {
	c := newController(t, Config{MaxInflight: 1, Target: time.Millisecond, MaxQueueWait: 20 * time.Millisecond, QueueLimit: 4})
	ctx := context.Background()
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	mustShed(t, c.Admit(ctx, "", time.Time{}), ReasonDeadline)
	c.Release(time.Millisecond)
}

func TestQueuedWaiterCanceled(t *testing.T) {
	c := newController(t, Config{MaxInflight: 1, Target: time.Millisecond, MaxQueueWait: 5 * time.Second, QueueLimit: 4})
	if err := c.Admit(context.Background(), "", time.Time{}); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Admit(ctx, "", time.Time{}) }()
	for c.State().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	mustShed(t, <-done, ReasonCanceled)
	if st := c.State(); st.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after cancel, want 0", st.QueueDepth)
	}
	c.Release(time.Millisecond)
}

func TestRateLimitPerClient(t *testing.T) {
	clk := newTestClock()
	c := newController(t, Config{MaxInflight: 8, RatePerClient: 1, BurstPerClient: 2, now: clk.Now})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := c.Admit(ctx, "alice", time.Time{}); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		c.Release(time.Millisecond)
	}
	se := mustShed(t, c.Admit(ctx, "alice", time.Time{}), ReasonRateLimit)
	if se.RetryAfter > 1100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want about a token's refill (<= 1.1s)", se.RetryAfter)
	}
	// A different client is unaffected, and anonymous requests are not
	// policed.
	if err := c.Admit(ctx, "bob", time.Time{}); err != nil {
		t.Fatalf("other client: %v", err)
	}
	c.Release(time.Millisecond)
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("anonymous: %v", err)
	}
	c.Release(time.Millisecond)
	// After a token's worth of time alice is admitted again.
	clk.Advance(1100 * time.Millisecond)
	if err := c.Admit(ctx, "alice", time.Time{}); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	c.Release(time.Millisecond)
}

func TestClientTableBounded(t *testing.T) {
	tb := newClientTable(1, 1, 3)
	now := time.Unix(1_700_000_000, 0)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		tb.take(name, now.Add(time.Duration(i)*time.Second))
	}
	if len(tb.m) != 3 {
		t.Fatalf("table size = %d, want bounded at 3", len(tb.m))
	}
	if _, ok := tb.m["e"]; !ok {
		t.Fatalf("most recent client evicted; table = %v", tb.m)
	}
}

func TestAIMDDecreaseAndRecover(t *testing.T) {
	clk := newTestClock()
	c := newController(t, Config{MaxInflight: 10, Target: 10 * time.Millisecond, now: clk.Now})
	ctx := context.Background()
	// Slow releases decrease multiplicatively, one per cool-off.
	for i := 0; i < 20; i++ {
		if err := c.Admit(ctx, "", time.Time{}); err != nil {
			t.Fatalf("admit: %v", err)
		}
		c.Release(100 * time.Millisecond)
		clk.Advance(50 * time.Millisecond)
	}
	dropped := c.State().Limit
	if dropped >= 10 {
		t.Fatalf("limit = %v after sustained overload, want < 10", dropped)
	}
	if dropped < 1 {
		t.Fatalf("limit = %v fell below the floor", dropped)
	}
	// Fast releases earn the limit back additively.
	for i := 0; i < 400; i++ {
		if err := c.Admit(ctx, "", time.Time{}); err != nil {
			t.Fatalf("admit: %v", err)
		}
		c.Release(time.Millisecond)
	}
	if got := c.State().Limit; got <= dropped {
		t.Fatalf("limit = %v after recovery, want > %v", got, dropped)
	}
}

func TestAIMDCooldownLimitsDecreaseRate(t *testing.T) {
	clk := newTestClock()
	c := newController(t, Config{MaxInflight: 100, Target: 10 * time.Millisecond, now: clk.Now})
	ctx := context.Background()
	// A burst of slow releases inside one cool-off window must count as
	// a single multiplicative decrease.
	for i := 0; i < 10; i++ {
		if err := c.Admit(ctx, "", time.Time{}); err != nil {
			t.Fatalf("admit: %v", err)
		}
		c.Release(time.Second)
	}
	if got := c.State().Limit; got < 74 || got > 76 {
		t.Fatalf("limit = %v after one burst, want one 0.75 step (75)", got)
	}
}

func TestBeginDrainFlushesQueueAndRejectsNew(t *testing.T) {
	c := newController(t, Config{MaxInflight: 1, QueueLimit: 4, MaxQueueWait: 5 * time.Second})
	ctx := context.Background()
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Admit(ctx, "", time.Time{}) }()
	for c.State().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}
	c.BeginDrain()
	mustShed(t, <-done, ReasonDraining)
	mustShed(t, c.Admit(ctx, "", time.Time{}), ReasonDraining)
	// The admitted request still completes and releases normally.
	c.Release(time.Millisecond)
	if st := c.State(); st.Inflight != 0 || !st.Draining {
		t.Fatalf("state after drain = %+v, want inflight=0 draining", st)
	}
}

func TestBrownoutActivatesAndRecovers(t *testing.T) {
	clk := newTestClock()
	c := newController(t, Config{
		MaxInflight: 1, QueueLimit: -1,
		BrownoutShedPct: 0.3, BrownoutWindow: 8 * time.Second, BrownoutMinSamples: 4,
		now: clk.Now,
	})
	ctx := context.Background()
	if c.BrownoutActive() {
		t.Fatal("brownout active before any traffic")
	}
	// Hold the only slot and hammer: every further request is a
	// capacity shed.
	if err := c.Admit(ctx, "", time.Time{}); err != nil {
		t.Fatalf("admit: %v", err)
	}
	for i := 0; i < 8; i++ {
		mustShed(t, c.Admit(ctx, "", time.Time{}), ReasonQueueFull)
	}
	if !c.BrownoutActive() {
		t.Fatal("brownout not active at 100% shed rate")
	}
	c.Release(time.Millisecond)
	// Once the window slides past the storm the mode clears.
	clk.Advance(10 * time.Second)
	if c.BrownoutActive() {
		t.Fatal("brownout still active after the window expired")
	}
}

func TestBrownoutIgnoresRateLimitSheds(t *testing.T) {
	clk := newTestClock()
	c := newController(t, Config{
		MaxInflight: 8, RatePerClient: 0.001, BurstPerClient: 1,
		BrownoutShedPct: 0.1, BrownoutMinSamples: 2,
		now: clk.Now,
	})
	ctx := context.Background()
	if err := c.Admit(ctx, "greedy", time.Time{}); err != nil {
		t.Fatalf("admit: %v", err)
	}
	c.Release(time.Millisecond)
	for i := 0; i < 20; i++ {
		mustShed(t, c.Admit(ctx, "greedy", time.Time{}), ReasonRateLimit)
	}
	if c.BrownoutActive() {
		t.Fatal("per-client policing must not trigger brownout")
	}
}

// TestStormRace is the race-storm: admitters, releasers, a drain, and
// state pollers all hammering one controller. The assertions are the
// accounting invariants; the -race runner checks the rest.
func TestStormRace(t *testing.T) {
	c := newController(t, Config{
		MaxInflight: 8, Target: time.Millisecond, QueueLimit: 16,
		MaxQueueWait:  50 * time.Millisecond,
		RatePerClient: 1e6, BrownoutShedPct: 0.5, BrownoutMinSamples: 10,
	})
	ctx := context.Background()
	clients := []string{"", "a", "b", "c"}
	var admitted, shed atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := c.Admit(ctx, clients[(g+i)%len(clients)], time.Time{})
				if err != nil {
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				c.ReleaseWith(time.Duration(i%5)*time.Millisecond, 2*time.Millisecond)
			}
		}(g)
	}
	deadline := time.After(300 * time.Millisecond)
	for running := true; running; {
		select {
		case <-deadline:
			running = false
		default:
			_ = c.State()
			_ = c.BrownoutActive()
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	c.BeginDrain()
	st := c.State()
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after storm, want 0", st.Inflight)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after storm, want 0", st.QueueDepth)
	}
	if st.Admitted != admitted.Load() {
		t.Fatalf("controller admitted %d, callers saw %d", st.Admitted, admitted.Load())
	}
	if st.Shed != shed.Load() {
		t.Fatalf("controller shed %d, callers saw %d", st.Shed, shed.Load())
	}
}

// TestShedDecisionLatency pins the acceptance bound: even at 10× the
// concurrency the limiter allows, the p99 admission decision (admit or
// shed) stays under 5ms — sheds are a mutex and a couple of counters,
// never a queue wait.
func TestShedDecisionLatency(t *testing.T) {
	c := newController(t, Config{MaxInflight: 4, Target: time.Millisecond, QueueLimit: -1})
	ctx := context.Background()
	const (
		workers = 40 // 10× MaxInflight
		perG    = 200
	)
	durs := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			durs[g] = make([]time.Duration, 0, perG)
			for i := 0; i < perG; i++ {
				start := time.Now()
				err := c.Admit(ctx, "", time.Time{})
				durs[g] = append(durs[g], time.Since(start))
				if err == nil {
					c.Release(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	var all []time.Duration
	for _, d := range durs {
		all = append(all, d...)
	}
	// p99 without sorting the whole slice: count how many exceed the
	// bound.
	const bound = 5 * time.Millisecond
	var over int
	for _, d := range all {
		if d > bound {
			over++
		}
	}
	if allowed := len(all) / 100; over > allowed {
		t.Fatalf("%d/%d admission decisions over %v (p99 bound allows %d)", over, len(all), bound, allowed)
	}
}
