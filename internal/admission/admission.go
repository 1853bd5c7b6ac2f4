// Package admission implements server-side admission control for the
// index request path: a bounded inflight limit with a bounded,
// deadline-aware wait queue, and per-client token-bucket fair queuing.
// Requests the controller cannot serve in time are shed immediately
// with an Overload error carrying a Retry-After hint, so that under
// sustained overload the server keeps doing useful work at capacity
// instead of queueing itself into latency collapse.
//
// The controller gates only client-facing root operations (searches,
// pin queries, inserts, deletes). Interior wave traffic — sub-queries a
// root fans out mid-search — is never gated: shedding a sub-query
// wastes root-side work already admitted and paid for, while shedding
// at the root costs almost nothing.
package admission

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// Policy configures a Controller. The zero value selects defaults
// suitable for a single peer process (see withDefaults).
type Policy struct {
	// MaxInflight bounds the gated requests being served concurrently
	// (default 64). The limit is per controller, i.e. per peer.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot beyond
	// MaxInflight. 0 selects the default (2×MaxInflight); negative
	// disables queuing entirely, shedding as soon as inflight is full.
	MaxQueue int
	// QueueTimeout is the longest a request may wait for a slot before
	// it is shed (default 100ms). A request whose context deadline is
	// nearer than this waits only until the deadline: admitting work
	// the client has already given up on is pure waste.
	QueueTimeout time.Duration
	// PerClientRate is the sustained request rate (requests/second)
	// allowed per client ID; 0 disables fair queuing. Requests with an
	// empty client ID are exempt — fairness protects identified
	// clients from each other, and internal traffic carries no ID.
	PerClientRate float64
	// PerClientBurst is each client's token-bucket capacity (default
	// max(1, PerClientRate/4)).
	PerClientBurst float64
	// MaxClients bounds the tracked token buckets; the least recently
	// active client is evicted beyond it (default 4096).
	MaxClients int
	// RetryAfterHint is the Retry-After returned before any service
	// time has been observed (default 50ms). Once the controller has
	// an EWMA of service time, hints are derived from queue depth.
	RetryAfterHint time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

func (p Policy) withDefaults() Policy {
	if p.MaxInflight <= 0 {
		p.MaxInflight = 64
	}
	if p.MaxQueue == 0 {
		p.MaxQueue = 2 * p.MaxInflight
	}
	if p.MaxQueue < 0 {
		p.MaxQueue = 0
	}
	if p.QueueTimeout <= 0 {
		p.QueueTimeout = 100 * time.Millisecond
	}
	if p.PerClientBurst <= 0 {
		p.PerClientBurst = p.PerClientRate / 4
		if p.PerClientBurst < 1 {
			p.PerClientBurst = 1
		}
	}
	if p.MaxClients <= 0 {
		p.MaxClients = 4096
	}
	if p.RetryAfterHint <= 0 {
		p.RetryAfterHint = 50 * time.Millisecond
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// maxRetryAfter caps derived Retry-After hints: beyond a few seconds
// the exact value carries no information and only delays recovery
// probes.
const maxRetryAfter = 5 * time.Second

// Controller is one peer's admission gate. A nil Controller admits
// everything at zero cost (the telemetry nil-object convention).
type Controller struct {
	pol    Policy
	sem    chan struct{}
	queued atomic.Int64
	// serviceEWMA tracks mean service time (ns) of admitted requests;
	// it feeds the Retry-After estimate. Racy read-modify-write is
	// fine: the value is a smoothed hint, not an invariant.
	serviceEWMA atomic.Int64

	mu      sync.Mutex
	buckets map[string]*list.Element
	lru     *list.List // front = most recently active client

	metAdmitted   *telemetry.Counter    // admission_admitted_total
	metShed       *telemetry.Counter    // admission_shed_total
	metShedReason *telemetry.CounterVec // admission_shed_reason_total{reason}
	metQueueDepth *telemetry.Gauge      // admission_queue_depth
	metWait       *telemetry.Histogram  // admission_wait_ns
}

// bucket is one client's token bucket.
type bucket struct {
	client string
	tokens float64
	last   time.Time
}

// New builds a controller for pol, reporting its decisions into reg
// (nil disables instrumentation).
func New(pol Policy, reg *telemetry.Registry) *Controller {
	c := &Controller{
		pol:     pol.withDefaults(),
		buckets: make(map[string]*list.Element),
		lru:     list.New(),
	}
	c.sem = make(chan struct{}, c.pol.MaxInflight)
	if reg != nil {
		c.metAdmitted = reg.Counter("admission_admitted_total")
		c.metShed = reg.Counter("admission_shed_total")
		c.metShedReason = reg.CounterVec("admission_shed_reason_total", "reason")
		c.metQueueDepth = reg.Gauge("admission_queue_depth")
		c.metWait = reg.Histogram("admission_wait_ns", telemetry.ExpBuckets(int64(time.Microsecond), 4, 12))
		reg.GaugeFunc("admission_inflight", func() int64 { return int64(len(c.sem)) })
	}
	return c
}

// Policy returns the effective (defaulted) policy.
func (c *Controller) Policy() Policy { return c.pol }

// Inflight returns the number of admitted requests currently holding a
// slot (0 on nil).
func (c *Controller) Inflight() int {
	if c == nil {
		return 0
	}
	return len(c.sem)
}

// Queued returns the number of requests waiting for a slot (0 on nil).
func (c *Controller) Queued() int {
	if c == nil {
		return 0
	}
	return int(c.queued.Load())
}

// Acquire admits one request or sheds it. On admission it returns a
// release function the caller must invoke exactly once when the
// request finishes. On shed it returns an *Overload error (or the
// context's own error if the caller vanished while queued). A nil
// controller admits everything.
func (c *Controller) Acquire(ctx context.Context, clientID string) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if over := c.takeToken(clientID); over != nil {
		c.shed(over.Reason)
		return nil, over
	}
	// Fast path: a free slot, no queuing.
	select {
	case c.sem <- struct{}{}:
		c.metAdmitted.Inc()
		c.metWait.Observe(0)
		return c.releaseFunc(), nil
	default:
	}
	// Slot contention: join the bounded queue or shed now.
	if q := c.queued.Add(1); q > int64(c.pol.MaxQueue) {
		c.queued.Add(-1)
		c.shed(ReasonQueueFull)
		return nil, &Overload{Reason: ReasonQueueFull, RetryAfter: c.retryAfter()}
	}
	c.metQueueDepth.Add(1)
	defer func() {
		c.queued.Add(-1)
		c.metQueueDepth.Add(-1)
	}()

	// Deadline-aware wait: never hold a request past the point its
	// caller stops caring about the answer. A wait the deadline bounds
	// ends with the context and arms no timer of its own: two clocks
	// marking one instant race, and the loser would shed a deadline as
	// a cancellation.
	var expired <-chan time.Time
	if d, ok := ctx.Deadline(); !ok || time.Until(d) >= c.pol.QueueTimeout {
		timer := time.NewTimer(c.pol.QueueTimeout)
		defer timer.Stop()
		expired = timer.C
	} else if time.Until(d) <= 0 {
		c.shed(ReasonDeadline)
		return nil, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()}
	}
	start := c.pol.Now()
	select {
	case c.sem <- struct{}{}:
		c.metAdmitted.Inc()
		c.metWait.Observe(c.pol.Now().Sub(start).Nanoseconds())
		return c.releaseFunc(), nil
	case <-expired:
		c.shed(ReasonQueueTimeout)
		return nil, &Overload{Reason: ReasonQueueTimeout, RetryAfter: c.retryAfter()}
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.shed(ReasonDeadline)
			return nil, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()}
		}
		c.shed(ReasonCancelled)
		return nil, ctx.Err()
	}
}

// releaseFunc frees the caller's inflight slot and feeds the service
// time EWMA that Retry-After hints derive from.
func (c *Controller) releaseFunc() func() {
	admitted := c.pol.Now()
	return func() {
		<-c.sem
		sample := c.pol.Now().Sub(admitted).Nanoseconds()
		old := c.serviceEWMA.Load()
		c.serviceEWMA.Store(old + (sample-old)/8)
	}
}

// shed counts one shed decision.
func (c *Controller) shed(reason string) {
	c.metShed.Inc()
	c.metShedReason.Inc(reason)
}

// retryAfter estimates when a shed client should try again: the time
// for the current queue to drain through the inflight slots at the
// observed service rate, floored at one observed service time and
// capped at maxRetryAfter. Before any observation it falls back to
// the policy hint.
func (c *Controller) retryAfter() time.Duration {
	svc := time.Duration(c.serviceEWMA.Load())
	if svc <= 0 {
		return c.pol.RetryAfterHint
	}
	est := svc + time.Duration(float64(svc)*float64(c.queued.Load())/float64(c.pol.MaxInflight))
	if est > maxRetryAfter {
		est = maxRetryAfter
	}
	return est
}

// takeToken consumes one token from the client's bucket, returning an
// Overload (with the time until the next token as Retry-After) when
// the client is over its fair rate. Anonymous requests pass freely.
func (c *Controller) takeToken(clientID string) *Overload {
	if c.pol.PerClientRate <= 0 || clientID == "" {
		return nil
	}
	now := c.pol.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.buckets[clientID]
	var b *bucket
	if !ok {
		b = &bucket{client: clientID, tokens: c.pol.PerClientBurst, last: now}
		el = c.lru.PushFront(b)
		c.buckets[clientID] = el
		if c.lru.Len() > c.pol.MaxClients {
			oldest := c.lru.Remove(c.lru.Back()).(*bucket)
			delete(c.buckets, oldest.client)
		}
	} else {
		c.lru.MoveToFront(el)
		b = el.Value.(*bucket)
		b.tokens += now.Sub(b.last).Seconds() * c.pol.PerClientRate
		if b.tokens > c.pol.PerClientBurst {
			b.tokens = c.pol.PerClientBurst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / c.pol.PerClientRate * float64(time.Second))
	if wait > maxRetryAfter {
		wait = maxRetryAfter
	}
	return &Overload{Reason: ReasonClientRate, RetryAfter: wait}
}
