package telemetry

import (
	"sync"
	"time"
)

// Span step kinds mirror the paper's superset-search protocol
// messages: the root handles the initiator's T_QUERY itself, drives
// the frontier with T_CONT sub-queries, and T_STOP marks the visit at
// which the threshold was met and the traversal halted.
const (
	StepQuery = "T_QUERY"
	StepCont  = "T_CONT"
	StepStop  = "T_STOP"
)

// MaxSpanSteps bounds the per-span wave tree so one exhaustive search
// over a large subhypercube cannot balloon the ring; the span records
// how many steps were dropped.
const MaxSpanSteps = 512

// SpanStep is one node visit of a superset-search traversal.
type SpanStep struct {
	Kind    string `json:"kind"` // T_QUERY (root), T_CONT, or T_STOP
	Vertex  uint64 `json:"vertex"`
	Depth   int    `json:"depth"` // Hamming distance from the root of the vertex's SBT branch
	Matches int    `json:"matches"`
	Failed  bool   `json:"failed,omitempty"`
}

// Span is one recorded superset-search trace: the wave tree the root
// drove over the spanning binomial tree, plus the aggregate cost the
// paper's Section 3.5 reports.
type Span struct {
	Op             string     `json:"op"`
	Instance       string     `json:"instance"`
	Query          string     `json:"query"`
	Root           uint64     `json:"root"`
	Order          string     `json:"order"`
	Start          time.Time  `json:"start"`
	DurationNS     int64      `json:"duration_ns"`
	Nodes          int        `json:"nodes"`
	Msgs           int        `json:"msgs"`
	Failed         int        `json:"failed,omitempty"`
	Rounds         int        `json:"rounds"`
	Matches        int        `json:"matches"`
	CacheHit       bool       `json:"cache_hit,omitempty"`
	Exhausted      bool       `json:"exhausted,omitempty"`
	Steps          []SpanStep `json:"steps,omitempty"`
	DroppedSteps   int        `json:"dropped_steps,omitempty"`
	ContinuedFrom  uint64     `json:"continued_from,omitempty"` // session ID resumed, 0 for fresh queries
	SessionPending uint64     `json:"session_pending,omitempty"`
}

// spanRing is a bounded ring buffer of recent spans.
type spanRing struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

func newSpanRing(capacity int) *spanRing {
	return &spanRing{buf: make([]Span, 0, capacity)}
}

// RecordSpan appends a span to the ring, evicting the oldest when
// full. Steps beyond MaxSpanSteps must already be truncated by the
// caller (see Span.DroppedSteps). No-op on a nil Registry.
func (r *Registry) RecordSpan(s Span) {
	if r == nil {
		return
	}
	ring := r.spans
	ring.mu.Lock()
	defer ring.mu.Unlock()
	ring.total++
	if len(ring.buf) < cap(ring.buf) {
		ring.buf = append(ring.buf, s)
		return
	}
	ring.buf[ring.next] = s
	ring.next = (ring.next + 1) % cap(ring.buf)
}

// Spans returns the retained spans, oldest first, plus the total
// number ever recorded (so callers can tell how many were evicted).
// Nil Registry returns nothing.
func (r *Registry) Spans() (spans []Span, total uint64) {
	if r == nil {
		return nil, 0
	}
	ring := r.spans
	ring.mu.Lock()
	defer ring.mu.Unlock()
	out := make([]Span, 0, len(ring.buf))
	if len(ring.buf) == cap(ring.buf) {
		out = append(out, ring.buf[ring.next:]...)
		out = append(out, ring.buf[:ring.next]...)
	} else {
		out = append(out, ring.buf...)
	}
	return out, ring.total
}
