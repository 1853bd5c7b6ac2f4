package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

func TestAcquireReleaseFastPath(t *testing.T) {
	c := New(Policy{MaxInflight: 2}, nil)
	ctx := context.Background()
	rel1, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	rel2, err := c.Acquire(ctx, "b")
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if got := c.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	rel1()
	rel2()
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	// One slot, no queue: the second concurrent request must shed
	// immediately with a queue-full Overload.
	c := New(Policy{MaxInflight: 1, MaxQueue: -1}, nil)
	ctx := context.Background()
	rel, err := c.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	_, err = c.Acquire(ctx, "")
	var o *Overload
	if !errors.As(err, &o) {
		t.Fatalf("second acquire err = %v, want *Overload", err)
	}
	if o.Reason != ReasonQueueFull {
		t.Fatalf("reason = %q, want %q", o.Reason, ReasonQueueFull)
	}
	if o.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", o.RetryAfter)
	}
	if !errors.Is(err, ErrOverload) {
		t.Fatal("errors.Is(err, ErrOverload) = false, want true")
	}
}

func TestQueuedRequestAdmittedWhenSlotFrees(t *testing.T) {
	c := New(Policy{MaxInflight: 1, MaxQueue: 1, QueueTimeout: time.Second}, nil)
	ctx := context.Background()
	rel, err := c.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		rel2, err := c.Acquire(ctx, "")
		if err == nil {
			rel2()
		}
		done <- err
	}()
	// Let the second request park in the queue, then free the slot.
	deadline := time.Now().Add(time.Second)
	for c.Queued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rel()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("queued after drain = %d, want 0", got)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	c := New(Policy{MaxInflight: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond}, nil)
	ctx := context.Background()
	rel, err := c.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	_, err = c.Acquire(ctx, "")
	var o *Overload
	if !errors.As(err, &o) || o.Reason != ReasonQueueTimeout {
		t.Fatalf("err = %v, want queue-timeout Overload", err)
	}
}

func TestDeadlineAwareShedding(t *testing.T) {
	c := New(Policy{MaxInflight: 1, MaxQueue: 4, QueueTimeout: time.Second}, nil)
	rel, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()

	// An already-expired deadline sheds without waiting at all.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err = c.Acquire(expired, "")
	var o *Overload
	if !errors.As(err, &o) || o.Reason != ReasonDeadline {
		t.Fatalf("err = %v, want deadline Overload", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("expired-deadline acquire waited %v, want immediate shed", waited)
	}

	// A near deadline bounds the wait below QueueTimeout.
	near, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start = time.Now()
	_, err = c.Acquire(near, "")
	if !errors.As(err, &o) || o.Reason != ReasonDeadline {
		t.Fatalf("err = %v, want deadline Overload", err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("near-deadline acquire waited %v, want ≈20ms", waited)
	}
}

func TestCancelledWhileQueuedReturnsCtxErr(t *testing.T) {
	c := New(Policy{MaxInflight: 1, MaxQueue: 4, QueueTimeout: time.Second}, nil)
	rel, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, "")
		done <- err
	}()
	deadline := time.Now().Add(time.Second)
	for c.Queued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPerClientFairness(t *testing.T) {
	// A virtual clock makes the token math deterministic.
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(Policy{
		MaxInflight:    100,
		PerClientRate:  10, // 10 req/s
		PerClientBurst: 2,
		Now:            clock,
	}, nil)
	ctx := context.Background()

	// The hot client burns its burst, then sheds.
	for i := 0; i < 2; i++ {
		rel, err := c.Acquire(ctx, "hot")
		if err != nil {
			t.Fatalf("hot acquire %d: %v", i, err)
		}
		rel()
	}
	_, err := c.Acquire(ctx, "hot")
	var o *Overload
	if !errors.As(err, &o) || o.Reason != ReasonClientRate {
		t.Fatalf("hot over-burst err = %v, want client-rate Overload", err)
	}
	if o.RetryAfter <= 0 || o.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s] at 10 req/s", o.RetryAfter)
	}

	// A cold client is unaffected by the hot client's exhaustion.
	rel, err := c.Acquire(ctx, "cold")
	if err != nil {
		t.Fatalf("cold client shed alongside hot one: %v", err)
	}
	rel()

	// Anonymous requests bypass fair queuing entirely.
	rel, err = c.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("anonymous request rate-limited: %v", err)
	}
	rel()

	// After 100ms one token (10/s) refills for the hot client.
	now = now.Add(100 * time.Millisecond)
	rel, err = c.Acquire(ctx, "hot")
	if err != nil {
		t.Fatalf("hot acquire after refill: %v", err)
	}
	rel()
}

func TestClientBucketLRUEviction(t *testing.T) {
	c := New(Policy{MaxInflight: 100, PerClientRate: 1000, PerClientBurst: 1, MaxClients: 2}, nil)
	ctx := context.Background()
	for _, id := range []string{"a", "b", "c"} {
		rel, err := c.Acquire(ctx, id)
		if err != nil {
			t.Fatalf("acquire %s: %v", id, err)
		}
		rel()
	}
	c.mu.Lock()
	n := len(c.buckets)
	_, aTracked := c.buckets["a"]
	c.mu.Unlock()
	if n != 2 || aTracked {
		t.Fatalf("tracked buckets = %d (a tracked: %v), want 2 with oldest evicted", n, aTracked)
	}
}

func TestOverloadErrorRoundTrip(t *testing.T) {
	orig := &Overload{Reason: ReasonQueueFull, RetryAfter: 25 * time.Millisecond}

	// In-process: errors.As through wrapping.
	wrapped := fmt.Errorf("superset search: %w", orig)
	got, ok := FromError(wrapped)
	if !ok || got.RetryAfter != orig.RetryAfter || got.Reason != orig.Reason {
		t.Fatalf("FromError(wrapped) = %+v, %v", got, ok)
	}

	// Across a transport: both transports flatten handler errors to
	// strings; simulate both shapes and require full recovery.
	for _, flat := range []error{
		fmt.Errorf("%w: %v", transport.ErrRemote, orig),                                // inmem
		fmt.Errorf("%w: %s", transport.ErrRemote, orig.Error()),                        // tcpnet
		fmt.Errorf("superset search [a b]: %w: %s", transport.ErrRemote, orig.Error()), // client wrap
	} {
		got, ok := FromError(flat)
		if !ok {
			t.Fatalf("FromError(%q) failed to recover", flat)
		}
		if got.Reason != orig.Reason || got.RetryAfter != orig.RetryAfter {
			t.Fatalf("FromError(%q) = %+v, want %+v", flat, got, orig)
		}
		if !IsOverload(flat) {
			t.Fatalf("IsOverload(%q) = false", flat)
		}
	}

	if IsOverload(errors.New("some other error")) {
		t.Fatal("IsOverload matched an unrelated error")
	}
	if IsOverload(nil) {
		t.Fatal("IsOverload(nil) = true")
	}
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	rel, err := c.Acquire(context.Background(), "x")
	if err != nil {
		t.Fatalf("nil controller: %v", err)
	}
	rel()
	if c.Inflight() != 0 || c.Queued() != 0 {
		t.Fatal("nil controller reported non-zero load")
	}
}

func TestCountersReconcile(t *testing.T) {
	reg := telemetry.New(0)
	c := New(Policy{MaxInflight: 2, MaxQueue: 2, QueueTimeout: 5 * time.Millisecond}, reg)
	ctx := context.Background()

	const offered = 200
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Acquire(ctx, "")
			if err == nil {
				time.Sleep(200 * time.Microsecond)
				rel()
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	admitted := snap.Counters["admission_admitted_total"]
	shed := snap.Counters["admission_shed_total"]
	if admitted+shed != offered {
		t.Fatalf("admitted(%d) + shed(%d) = %d, want offered %d", admitted, shed, admitted+shed, offered)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if c.Inflight() != 0 || c.Queued() != 0 {
		t.Fatalf("leaked load: inflight=%d queued=%d", c.Inflight(), c.Queued())
	}
	if snap.Gauges["admission_queue_depth"] != 0 {
		t.Fatalf("queue depth gauge = %d, want 0 after drain", snap.Gauges["admission_queue_depth"])
	}
}

// TestDeadlineBoundedWaitEndsOneWay: a queued wait that the caller's
// deadline bounds ends one way. The context's Done and the wait's own
// expiry both mark the deadline, so whichever is seen first the answer
// is a deadline Overload, and the shed counters attribute it to the
// deadline, never to a cancelled caller.
func TestDeadlineBoundedWaitEndsOneWay(t *testing.T) {
	const workers, perWorker = 8, 250
	reg := telemetry.New(0)
	c := New(Policy{MaxInflight: 1, MaxQueue: workers, QueueTimeout: time.Second}, reg)
	rel, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()

	start := time.Now()
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, err := c.Acquire(ctx, "")
				cancel()
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("%d acquires with 1 ms deadlines took %v, want <= 3s", workers*perWorker, took)
	}
	wrong := map[string]int{}
	for err := range errs {
		var o *Overload
		if !errors.As(err, &o) || o.Reason != ReasonDeadline {
			wrong[fmt.Sprint(err)]++
		}
	}
	if len(wrong) != 0 {
		t.Errorf("of %d deadline-bounded acquires, these did not end in a deadline Overload: %v", workers*perWorker, wrong)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`admission_shed_reason_total{reason="deadline"}`]; got != workers*perWorker {
		t.Errorf("deadline sheds = %d, want %d; counters %v", got, workers*perWorker, snap.Counters)
	}
	if got := snap.Counters["admission_shed_total"]; got != workers*perWorker {
		t.Errorf("sheds = %d, want %d", got, workers*perWorker)
	}
}
