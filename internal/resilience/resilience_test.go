package resilience

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/leakcheck"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// fakeClock is a deterministic Clock: Now is advanced manually, and
// After records the requested duration and (unless block is set) fires
// immediately, so backoff sleeps and hedge delays complete instantly
// while remaining observable.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	block   bool
	afters  []time.Duration
	pending []chan time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.afters = append(c.afters, d)
	now := c.now
	block := c.block
	ch := make(chan time.Time, 1)
	if block {
		c.pending = append(c.pending, ch)
	}
	c.mu.Unlock()
	if !block {
		ch <- now
	}
	return ch
}

// fire releases every timer handed out while block was set.
func (c *fakeClock) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.pending {
		ch <- c.now
	}
	c.pending = nil
}

// fireArmed waits until a timer has been handed out, then fires: a
// hedged send's primary leg can reach its sender before the hedge timer
// is armed.
func (c *fakeClock) fireArmed() {
	for {
		c.mu.Lock()
		armed := len(c.pending) > 0
		c.mu.Unlock()
		if armed {
			c.fire()
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (c *fakeClock) sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.afters...)
}

// scriptedSender counts calls and delegates each to fn with its
// 1-based sequence number.
type scriptedSender struct {
	mu sync.Mutex
	n  int
	fn func(call int, ctx context.Context) (any, error)
}

func (s *scriptedSender) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	s.mu.Lock()
	s.n++
	call := s.n
	s.mu.Unlock()
	return s.fn(call, ctx)
}

func (s *scriptedSender) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func counter(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	return reg.Snapshot().Counters[name]
}

func TestRetrySucceedsAfterUnreachable(t *testing.T) {
	clk := newFakeClock()
	sender := &scriptedSender{fn: func(call int, _ context.Context) (any, error) {
		if call < 3 {
			return nil, transport.ErrUnreachable
		}
		return "ok", nil
	}}
	mw := Wrap(sender, Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Clock:       clk,
		Rand:        func() float64 { return 0.5 },
	})
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)

	resp, err := mw.Send(context.Background(), "dest", "req")
	if err != nil || resp != "ok" {
		t.Fatalf("Send = %v, %v; want ok, nil", resp, err)
	}
	if got := sender.calls(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := counter(t, reg, "resilience_retries_total"); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// MaxDelay defaults to BaseDelay, so both full-jitter windows are
	// 1ms and the 0.5 draw makes each sleep exactly 500µs.
	sleeps := clk.sleeps()
	if len(sleeps) != 2 || sleeps[0] != 500*time.Microsecond || sleeps[1] != 500*time.Microsecond {
		t.Errorf("sleeps = %v, want [500µs 500µs]", sleeps)
	}
}

func TestRemoteErrorNotRetried(t *testing.T) {
	boom := fmt.Errorf("%w: index rejected it", transport.ErrRemote)
	sender := &scriptedSender{fn: func(int, context.Context) (any, error) { return nil, boom }}
	mw := Wrap(sender, Policy{
		MaxAttempts: 3,
		Clock:       newFakeClock(),
		Breaker:     BreakerPolicy{FailureThreshold: 1, OpenFor: time.Minute},
	})
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)

	_, err := mw.Send(context.Background(), "dest", "req")
	if !errors.Is(err, transport.ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if got := sender.calls(); got != 1 {
		t.Errorf("attempts = %d, want 1 (application errors are conclusive)", got)
	}
	if got := counter(t, reg, "resilience_retries_total"); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
	// The destination answered, so even a 1-failure threshold must not
	// have tripped.
	if got := mw.BreakerState("dest"); got != Closed {
		t.Errorf("breaker = %v, want closed", got)
	}
}

func TestDeadlineRetriedOnlyForReads(t *testing.T) {
	for _, tc := range []struct {
		name      string
		readOnly  bool
		wantCalls int
	}{
		{"write", false, 1},
		{"read", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sender := &scriptedSender{fn: func(int, context.Context) (any, error) {
				return nil, context.DeadlineExceeded
			}}
			mw := Wrap(sender, Policy{MaxAttempts: 2, Clock: newFakeClock()})
			mw.SetReadOnly(func(any) bool { return tc.readOnly })

			_, err := mw.Send(context.Background(), "dest", "req")
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if got := sender.calls(); got != tc.wantCalls {
				t.Errorf("attempts = %d, want %d", got, tc.wantCalls)
			}
		})
	}
}

func TestBreakerOpensAndShortCircuits(t *testing.T) {
	clk := newFakeClock()
	sender := &scriptedSender{fn: func(int, context.Context) (any, error) {
		return nil, transport.ErrUnreachable
	}}
	mw := Wrap(sender, Policy{
		MaxAttempts: 1,
		Clock:       clk,
		Breaker:     BreakerPolicy{FailureThreshold: 2, OpenFor: time.Minute, HalfOpenProbes: 1},
	})
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := mw.Send(ctx, "dest", "req"); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("send %d: err = %v, want ErrUnreachable", i, err)
		}
	}
	if got := mw.BreakerState("dest"); got != Open {
		t.Fatalf("breaker = %v, want open after %d failures", got, 2)
	}
	if got := counter(t, reg, "resilience_breaker_opens_total"); got != 1 {
		t.Errorf("opens = %d, want 1", got)
	}

	// The third send must be rejected without touching the transport,
	// with an error that still reads as unreachability to callers.
	_, err := mw.Send(ctx, "dest", "req")
	if !errors.Is(err, ErrOpen) || !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrOpen wrapped in ErrUnreachable", err)
	}
	if got := sender.calls(); got != 2 {
		t.Errorf("transport sends = %d, want 2 (third was short-circuited)", got)
	}
	if got := counter(t, reg, "resilience_breaker_short_circuits_total"); got != 1 {
		t.Errorf("short circuits = %d, want 1", got)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["resilience_breaker_state"]; got != 1 {
		t.Errorf("resilience_breaker_state = %d, want 1 open breaker", got)
	}
	if got := snap.Gauges["resilience_breakers_closed"]; got != 0 {
		t.Errorf("resilience_breakers_closed = %d, want 0", got)
	}
}

func TestBreakerHalfOpenReopensAndRecloses(t *testing.T) {
	clk := newFakeClock()
	var ok bool // flip to let the probe succeed
	sender := &scriptedSender{fn: func(int, context.Context) (any, error) {
		if ok {
			return "ok", nil
		}
		return nil, transport.ErrUnreachable
	}}
	mw := Wrap(sender, Policy{
		MaxAttempts: 1,
		Clock:       clk,
		Breaker:     BreakerPolicy{FailureThreshold: 1, OpenFor: time.Minute, HalfOpenProbes: 1},
	})
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)
	ctx := context.Background()

	if _, err := mw.Send(ctx, "dest", "req"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatal(err)
	}
	if got := mw.BreakerState("dest"); got != Open {
		t.Fatalf("breaker = %v, want open", got)
	}

	// After OpenFor the breaker admits one probe; a failed probe reopens.
	clk.Advance(2 * time.Minute)
	if _, err := mw.Send(ctx, "dest", "req"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatal(err)
	}
	if got := mw.BreakerState("dest"); got != Open {
		t.Fatalf("breaker = %v, want re-opened after failed probe", got)
	}
	if got := counter(t, reg, "resilience_breaker_opens_total"); got != 2 {
		t.Errorf("opens = %d, want 2 (initial + reopen)", got)
	}

	// A successful probe closes it and normal traffic resumes.
	clk.Advance(2 * time.Minute)
	ok = true
	if resp, err := mw.Send(ctx, "dest", "req"); err != nil || resp != "ok" {
		t.Fatalf("probe = %v, %v; want ok, nil", resp, err)
	}
	if got := mw.BreakerState("dest"); got != Closed {
		t.Errorf("breaker = %v, want closed after successful probe", got)
	}
}

func TestHedgeWins(t *testing.T) {
	clk := newFakeClock()
	clk.block = true // the hedge timer fires only when the test says so
	primaryIn := make(chan struct{})
	release := make(chan struct{})
	sender := &scriptedSender{fn: func(call int, ctx context.Context) (any, error) {
		if call == 1 {
			// Primary: stuck until the hedged race is decided.
			close(primaryIn)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		}
		return "hedge-ok", nil
	}}
	mw := Wrap(sender, Policy{
		MaxAttempts: 1,
		HedgeDelay:  10 * time.Millisecond,
		MaxHedges:   1,
		Clock:       clk,
	})
	mw.SetReadOnly(func(any) bool { return true })
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)

	type result struct {
		resp any
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := mw.Send(context.Background(), "dest", "req")
		done <- result{resp, err}
	}()
	<-primaryIn // the stuck primary owns call 1 before the hedge can launch
	clk.fireArmed()
	res := <-done
	close(release)
	if res.err != nil || res.resp != "hedge-ok" {
		t.Fatalf("Send = %v, %v; want hedge-ok, nil", res.resp, res.err)
	}
	if got := counter(t, reg, "resilience_hedges_total"); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := counter(t, reg, "resilience_hedge_wins_total"); got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
}

// unitsBody shares its slice with the caller, the way a frame carved out
// of a pooled buffer does.
type unitsBody struct{ units []int }

func (b unitsBody) CloneBody() any {
	b.units = slices.Clone(b.units)
	return b
}

// plainBody shares its slice too, but does not say so.
type plainBody struct{ units []int }

// bodySender hands every call's body to fn with its 1-based sequence
// number.
type bodySender struct {
	mu sync.Mutex
	n  int
	fn func(call int, body any) (any, error)
}

func (s *bodySender) Send(_ context.Context, _ transport.Addr, body any) (any, error) {
	s.mu.Lock()
	s.n++
	call := s.n
	s.mu.Unlock()
	return s.fn(call, body)
}

// TestHedgedLegReadsClone: once Send returns, the body is the caller's
// again (transport.Sender), and a hedged send's losing leg, still
// running, reads a copy of it. The primary blocks, the hedge wins, the
// caller overwrites its body's slice, and only then does the loser read
// its body: it sees what the caller sent.
func TestHedgedLegReadsClone(t *testing.T) {
	clk := newFakeClock()
	clk.block = true // the hedge timer fires only when the test says so
	primaryIn, release := make(chan struct{}), make(chan struct{})
	seen := make(chan []int, 1)
	sender := &bodySender{fn: func(call int, body any) (any, error) {
		if call == 1 {
			close(primaryIn)
			<-release // past the caller's Send, whatever the hedged race decided
			seen <- slices.Clone(body.(unitsBody).units)
			return nil, context.Canceled
		}
		return "hedge-ok", nil
	}}
	mw := Wrap(sender, Policy{MaxAttempts: 1, HedgeDelay: 10 * time.Millisecond, MaxHedges: 1, Clock: clk})
	mw.SetReadOnly(func(any) bool { return true })

	body := unitsBody{units: []int{1, 2, 3}}
	done := make(chan error, 1)
	go func() {
		resp, err := mw.Send(context.Background(), "dest", body)
		if err == nil && resp != "hedge-ok" {
			err = fmt.Errorf("resp %v, want hedge-ok", resp)
		}
		done <- err
	}()
	<-primaryIn
	clk.fireArmed()
	if err := <-done; err != nil {
		t.Fatalf("hedged Send: %v", err)
	}
	for i := range body.units {
		body.units[i] = -1 // the caller reuses its buffer
	}
	close(release)
	if got := <-seen; !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("the losing leg read %v after Send returned, want the body as sent, [1 2 3]", got)
	}
}

// TestUnhedgedBodyPassesThrough: only a hedged send copies its body. A
// body without CloneBody, or any body with hedging off, reaches the
// inner sender as the very value the caller passed.
func TestUnhedgedBodyPassesThrough(t *testing.T) {
	units := []int{1, 2, 3}
	for _, tc := range []struct {
		name  string
		body  any
		hedge time.Duration
	}{
		{"plain body, hedging on", plainBody{units}, 10 * time.Millisecond},
		{"cloner, hedging off", unitsBody{units}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			clk.block = true // no hedge leg: the primary answers first
			var got any
			sender := &bodySender{fn: func(_ int, body any) (any, error) {
				got = body
				return "ok", nil
			}}
			mw := Wrap(sender, Policy{MaxAttempts: 1, HedgeDelay: tc.hedge, MaxHedges: 1, Clock: clk})
			mw.SetReadOnly(func(any) bool { return true })
			if _, err := mw.Send(context.Background(), "dest", tc.body); err != nil {
				t.Fatal(err)
			}
			var inner []int
			switch b := got.(type) {
			case plainBody:
				inner = b.units
			case unitsBody:
				inner = b.units
			}
			if len(inner) != len(units) || &inner[0] != &units[0] {
				t.Errorf("the inner sender got %#v, want the caller's body sharing its array", got)
			}
		})
	}
}

func TestHedgedFastFailureSkipsHedge(t *testing.T) {
	clk := newFakeClock()
	clk.block = true // hedge timer never fires
	sender := &scriptedSender{fn: func(int, context.Context) (any, error) {
		return nil, transport.ErrUnreachable
	}}
	mw := Wrap(sender, Policy{
		MaxAttempts: 1,
		HedgeDelay:  10 * time.Millisecond,
		Clock:       clk,
	})
	mw.SetReadOnly(func(any) bool { return true })
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)

	// The primary fails fast; the attempt must conclude without waiting
	// out the hedge delay (the blocked timer would hang the test
	// otherwise) and without launching a hedge.
	done := make(chan error, 1)
	go func() {
		_, err := mw.Send(context.Background(), "dest", "req")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("err = %v, want ErrUnreachable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hedged send hung waiting for the hedge timer")
	}
	if got := sender.calls(); got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
	if got := counter(t, reg, "resilience_hedges_total"); got != 0 {
		t.Errorf("hedges = %d, want 0", got)
	}
}

func TestCallerDeadlineBypassesBreaker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // guarantee the caller's deadline has expired

	sender := &scriptedSender{fn: func(_ int, ctx context.Context) (any, error) {
		return nil, ctx.Err()
	}}
	mw := Wrap(sender, Policy{
		MaxAttempts: 3,
		Clock:       newFakeClock(),
		Breaker:     BreakerPolicy{FailureThreshold: 1, OpenFor: time.Minute},
	})
	reg := telemetry.New(8)
	mw.SetTelemetry(reg)

	if _, err := mw.Send(ctx, "dest", "req"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := sender.calls(); got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
	// The caller ran out of time; that is not evidence against the
	// destination, so the breaker must not have tripped.
	if got := mw.BreakerState("dest"); got != Closed {
		t.Errorf("breaker = %v, want closed", got)
	}
	if got := counter(t, reg, "resilience_retries_total"); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

func TestBindDelegatesToWrappedNetwork(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	mw := Wrap(net, DefaultPolicy())

	node, err := mw.Bind("srv", func(_ context.Context, _ transport.Addr, body any) (any, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	resp, err := mw.Send(context.Background(), "srv", "echo")
	if err != nil || resp != "echo" {
		t.Fatalf("Send = %v, %v; want echo, nil", resp, err)
	}
}

func TestBindRequiresNetwork(t *testing.T) {
	mw := Wrap(&scriptedSender{fn: func(int, context.Context) (any, error) { return nil, nil }}, Policy{})
	if _, err := mw.Bind("srv", nil); err == nil {
		t.Fatal("Bind over a bare Sender should fail")
	}
}

func TestBackoffCapGrowth(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2}.withDefaults()
	for retry, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 40 * time.Millisecond, // capped
	} {
		if got := p.backoffCap(retry); got != want {
			t.Errorf("backoffCap(%d) = %v, want %v", retry, got, want)
		}
	}
	if got := (Policy{}.withDefaults()).backoffCap(1); got != 0 {
		t.Errorf("zero BaseDelay backoffCap = %v, want 0", got)
	}
}

func TestAnyOf(t *testing.T) {
	isString := func(b any) bool { _, ok := b.(string); return ok }
	isInt := func(b any) bool { _, ok := b.(int); return ok }
	cl := AnyOf(nil, isString, isInt)
	if !cl("x") || !cl(7) {
		t.Error("AnyOf should accept bodies matched by any classifier")
	}
	if cl(3.14) {
		t.Error("AnyOf should reject bodies matched by none")
	}
}
