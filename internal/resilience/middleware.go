package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Middleware applies a Policy to every Send through an underlying
// transport: per-attempt timeouts, retry with full-jitter backoff,
// per-destination circuit breakers, and hedged sends for repeatable
// bodies (transport.Repeatable). It implements transport.Network — Bind
// delegates to the wrapped transport — so it drops into any wiring site
// that takes a Network or Sender.
//
// Failure classification follows the transport sentinels: only
// transport.ErrUnreachable and context.DeadlineExceeded count as
// transport-level failures (they feed breakers and may be retried);
// transport.ErrRemote and every other application error mean the
// destination is alive and are returned immediately. Writes — bodies
// that are not repeatable — are retried only on an ErrUnreachable that
// is not transport.ErrInDoubt, where the request never reached a
// handler, so a write is delivered at most once through the retry
// layer.
type Middleware struct {
	inner transport.Sender
	pol   Policy

	mu       sync.Mutex
	breakers map[transport.Addr]*breaker

	randMu sync.Mutex

	// Pre-resolved instruments (nil without telemetry; see SetTelemetry).
	retries       *telemetry.Counter // resilience_retries_total
	hedges        *telemetry.Counter // resilience_hedges_total
	hedgeWins     *telemetry.Counter // resilience_hedge_wins_total
	opens         *telemetry.Counter // resilience_breaker_opens_total
	shortCircuits *telemetry.Counter // resilience_breaker_short_circuits_total
}

// Wrap layers pol over inner.
func Wrap(inner transport.Sender, pol Policy) *Middleware {
	return &Middleware{
		inner:    inner,
		pol:      pol.withDefaults(),
		breakers: make(map[transport.Addr]*breaker),
	}
}

// Inner returns the wrapped transport.
func (m *Middleware) Inner() transport.Sender { return m.inner }

// Policy returns the effective (defaulted) policy.
func (m *Middleware) Policy() Policy { return m.pol }

// SetTelemetry wires the middleware's accounting into reg: retries
// issued, hedges launched and won, breaker transitions to open, sends
// rejected by an open breaker, and per-state breaker population
// gauges (resilience_breaker_state tracks open breakers). Call before
// serving traffic; a nil registry leaves instrumentation disabled.
func (m *Middleware) SetTelemetry(reg *telemetry.Registry) {
	m.retries = reg.Counter("resilience_retries_total")
	m.hedges = reg.Counter("resilience_hedges_total")
	m.hedgeWins = reg.Counter("resilience_hedge_wins_total")
	m.opens = reg.Counter("resilience_breaker_opens_total")
	m.shortCircuits = reg.Counter("resilience_breaker_short_circuits_total")
	reg.GaugeFunc("resilience_breaker_state", func() int64 { return m.stateCount(Open) })
	reg.GaugeFunc("resilience_breakers_closed", func() int64 { return m.stateCount(Closed) })
	reg.GaugeFunc("resilience_breakers_open", func() int64 { return m.stateCount(Open) })
	reg.GaugeFunc("resilience_breakers_half_open", func() int64 { return m.stateCount(HalfOpen) })
}

// Bind delegates to the wrapped transport, which must be a full
// transport.Network (tcpnet and inmem both are).
func (m *Middleware) Bind(addr transport.Addr, handler transport.Handler) (transport.Node, error) {
	n, ok := m.inner.(transport.Network)
	if !ok {
		return nil, fmt.Errorf("resilience: wrapped sender %T cannot bind endpoints", m.inner)
	}
	return n.Bind(addr, handler)
}

// BreakerState returns the current breaker state for a destination
// (Closed when the destination has never tripped the breaker).
func (m *Middleware) BreakerState(to transport.Addr) BreakerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.breakers[to]; ok {
		return b.state
	}
	return Closed
}

// Send applies the policy around the wrapped transport's Send.
func (m *Middleware) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	repeatable := transport.Repeatable(body)
	for attempt := 1; ; attempt++ {
		if !m.allow(to) {
			m.shortCircuits.Inc()
			return nil, fmt.Errorf("%w: %w (dest %s)", transport.ErrUnreachable, ErrOpen, to)
		}
		resp, err := m.attempt(ctx, to, body, repeatable)
		if err == nil || !transportFailure(err) {
			// The destination answered (possibly with an application
			// error): the path is healthy.
			m.onSuccess(to)
			return resp, err
		}
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// The caller's own context expired; neither the breaker nor
			// a retry should see this as a destination fault.
			return nil, err
		}
		m.onFailure(to)
		if attempt >= m.pol.MaxAttempts || !retriable(err, repeatable) || ctx.Err() != nil {
			return nil, err
		}
		if serr := m.sleep(ctx, attempt); serr != nil {
			return nil, err
		}
		m.retries.Inc()
	}
}

// transportFailure reports whether err means the destination did not
// answer (as opposed to answering with an application error).
func transportFailure(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) || errors.Is(err, context.DeadlineExceeded)
}

// retriable reports whether a transport failure may be retried.
// Unreachability is safe — the request never reached a handler — unless
// the transport says it is in doubt. A timed-out attempt may have
// executed remotely, so only repeatable bodies retry it.
func retriable(err error, repeatable bool) bool {
	if errors.Is(err, transport.ErrUnreachable) {
		return !errors.Is(err, transport.ErrInDoubt)
	}
	return repeatable && errors.Is(err, context.DeadlineExceeded)
}

// attempt performs one policy-level attempt: a single send, or a
// hedged pair for repeatable bodies when hedging is enabled.
func (m *Middleware) attempt(ctx context.Context, to transport.Addr, body any, repeatable bool) (any, error) {
	if repeatable && m.pol.HedgeDelay > 0 {
		return m.hedged(ctx, to, body)
	}
	return m.single(ctx, to, body)
}

// single is one wire-level send under the per-attempt timeout.
func (m *Middleware) single(ctx context.Context, to transport.Addr, body any) (any, error) {
	if m.pol.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.pol.AttemptTimeout)
		defer cancel()
	}
	return m.inner.Send(ctx, to, body)
}

// hedged races the primary send against up to MaxHedges duplicates,
// each launched HedgeDelay after the previous leg. The first
// conclusive answer — success or application error — wins and cancels
// the losers. Fast transport failures return to the retry loop
// immediately instead of waiting out the hedge timer.
//
// Losing legs outlive the call, and the caller may reuse the body once
// Send returns (transport.Sender), so the legs race over a copy of any
// body that shares memory with the caller.
func (m *Middleware) hedged(ctx context.Context, to transport.Addr, body any) (any, error) {
	if c, ok := body.(transport.BodyCloner); ok {
		body = c.CloneBody()
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp  any
		err   error
		hedge bool
	}
	results := make(chan outcome, m.pol.MaxHedges+1)
	launch := func(hedge bool) {
		go func() {
			resp, err := m.single(hctx, to, body)
			results <- outcome{resp, err, hedge}
		}()
	}

	launch(false)
	inFlight, launched := 1, 1
	timer := m.pol.Clock.After(m.pol.HedgeDelay)
	var firstErr error
	for {
		select {
		case o := <-results:
			inFlight--
			if o.err == nil || !transportFailure(o.err) {
				if o.hedge {
					m.hedgeWins.Inc()
				}
				return o.resp, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inFlight == 0 {
				return nil, firstErr
			}
		case <-timer:
			timer = nil
			if launched <= m.pol.MaxHedges {
				m.hedges.Inc()
				launch(true)
				inFlight++
				launched++
				if launched <= m.pol.MaxHedges {
					timer = m.pol.Clock.After(m.pol.HedgeDelay)
				}
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// sleep blocks for the full-jitter backoff before retry n. It returns
// non-nil when the caller's context expired while waiting.
func (m *Middleware) sleep(ctx context.Context, retry int) error {
	window := m.pol.backoffCap(retry)
	if window <= 0 {
		return ctx.Err()
	}
	m.randMu.Lock()
	d := time.Duration(m.pol.Rand() * float64(window))
	m.randMu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-m.pol.Clock.After(d):
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// allow consults the destination's breaker (always true when breakers
// are disabled).
func (m *Middleware) allow(to transport.Addr) bool {
	if m.pol.Breaker.FailureThreshold <= 0 {
		return true
	}
	now := m.pol.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.breakers[to]
	if !ok {
		b = newBreaker(m.pol.Breaker)
		m.breakers[to] = b
	}
	return b.allow(now)
}

func (m *Middleware) onSuccess(to transport.Addr) {
	if m.pol.Breaker.FailureThreshold <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.breakers[to]; ok {
		b.onSuccess()
	}
}

func (m *Middleware) onFailure(to transport.Addr) {
	if m.pol.Breaker.FailureThreshold <= 0 {
		return
	}
	now := m.pol.Clock.Now()
	m.mu.Lock()
	b, ok := m.breakers[to]
	if !ok {
		b = newBreaker(m.pol.Breaker)
		m.breakers[to] = b
	}
	opened := b.onFailure(now)
	m.mu.Unlock()
	if opened {
		m.opens.Inc()
	}
}

// stateCount returns how many destinations' breakers currently sit in
// state s (feeds the per-state gauges).
func (m *Middleware) stateCount(s BreakerState) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, b := range m.breakers {
		if b.state == s {
			n++
		}
	}
	return n
}
