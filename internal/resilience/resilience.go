// Package resilience is the fault-handling policy layer of the
// keysearch stack: configurable retry with exponential backoff and
// full jitter, per-attempt timeouts, per-destination circuit breakers,
// and optional hedged sends for repeatable RPCs — packaged as a
// transport middleware (see Wrap) so the same policy protects tcpnet,
// the Chord RPCs and the index protocol without touching any of them.
//
// The paper's superset search is a multi-round wave over a spanning
// binomial tree, so a single unreachable vertex mid-traversal hides
// index entries; Section 3.4 gestures at replication as the fix. This
// package supplies the principled half of that fix: transient faults
// (a dropped connection, a slow peer, a node mid-restart) are absorbed
// by retries and hedges, persistent faults are fenced off quickly by
// breakers so waves do not stall re-probing dead nodes, and everything
// above the transport keeps its exactly-once-per-vertex logic.
//
// Time and randomness are injectable (Clock, Policy.Rand) so tests
// replay identical schedules deterministically.
package resilience

import (
	"errors"
	"math/rand"
	"time"
)

// Clock abstracts time so tests can drive backoff, breaker recovery
// and hedge timers deterministically. The zero Policy uses the system
// clock.
type Clock interface {
	// Now returns the current time (drives breaker open windows).
	Now() time.Time
	// After returns a channel that fires once d has elapsed (drives
	// backoff sleeps and hedge delays).
	After(d time.Duration) <-chan time.Time
}

// systemClock is the production Clock.
type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock returns the wall clock used when Policy.Clock is nil.
func SystemClock() Clock { return systemClock{} }

// BreakerPolicy configures the per-destination circuit breakers.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive transport-level
	// failures that opens a destination's breaker. 0 disables breakers
	// entirely.
	FailureThreshold int
	// OpenFor is how long an open breaker rejects sends before moving
	// to half-open and admitting trial probes.
	OpenFor time.Duration
	// HalfOpenProbes bounds the concurrent trial sends admitted while
	// half-open; the first success closes the breaker, any failure
	// reopens it.
	HalfOpenProbes int
}

// Policy configures the resilience middleware. The zero value is
// usable but does nothing beyond pass-through (one attempt, no
// breaker, no hedging); DefaultPolicy returns the recommended
// production configuration.
type Policy struct {
	// MaxAttempts is the total number of tries per send, including the
	// first (minimum 1).
	MaxAttempts int
	// BaseDelay is the backoff cap before the first retry; the cap
	// doubles (times Multiplier) per subsequent retry up to MaxDelay,
	// and the actual sleep is drawn uniformly from [0, cap) — "full
	// jitter", which decorrelates retry storms after a wave hits a
	// dead node.
	BaseDelay time.Duration
	// MaxDelay caps the backoff window growth.
	MaxDelay time.Duration
	// Multiplier is the per-retry backoff growth factor (default 2).
	Multiplier float64
	// AttemptTimeout bounds each individual attempt (0 = only the
	// caller's context applies). Expiry counts as a failure and, for
	// repeatable sends (transport.Repeatable), is retried.
	AttemptTimeout time.Duration
	// HedgeDelay, when positive, launches a duplicate of a still
	// unanswered repeatable send after this delay; the first response
	// wins. Writes are never hedged.
	HedgeDelay time.Duration
	// MaxHedges bounds the extra sends a hedged request may launch
	// (default 1).
	MaxHedges int
	// Breaker configures the per-destination circuit breakers.
	Breaker BreakerPolicy
	// Clock supplies time (nil = system clock). Injectable so tests
	// replay backoff/breaker/hedge schedules deterministically.
	Clock Clock
	// Rand supplies the jitter draw in [0, 1) (nil = math/rand global).
	// Injectable for deterministic tests; called under an internal
	// mutex, so a rand.Rand's Float64 method is safe to pass.
	Rand func() float64
}

// DefaultPolicy returns the recommended production policy: three
// attempts with 10ms..2s full-jitter backoff, breakers opening after
// five consecutive failures for one second, hedging disabled.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		MaxHedges:   1,
		Breaker: BreakerPolicy{
			FailureThreshold: 5,
			OpenFor:          time.Second,
			HalfOpenProbes:   1,
		},
	}
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = p.BaseDelay
	}
	if p.MaxHedges < 1 {
		p.MaxHedges = 1
	}
	if p.Breaker.HalfOpenProbes < 1 {
		p.Breaker.HalfOpenProbes = 1
	}
	if p.Breaker.OpenFor <= 0 {
		p.Breaker.OpenFor = time.Second
	}
	if p.Clock == nil {
		p.Clock = systemClock{}
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// ErrOpen reports a send rejected without touching the network because
// the destination's circuit breaker is open. The middleware wraps it
// together with transport.ErrUnreachable so existing unreachability
// handling (replica failover, subtree skipping) applies unchanged.
var ErrOpen = errors.New("resilience: circuit breaker open")
