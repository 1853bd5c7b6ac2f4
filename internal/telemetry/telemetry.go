// Package telemetry is the zero-dependency observability layer of the
// keysearch stack: a Registry of named atomic counters, gauges and
// fixed-bucket histograms, a bounded ring of search-trace spans, and
// Prometheus-text / JSON exposition (see expose.go and http.go).
//
// The hot path is lock-free: instruments are resolved once at wiring
// time and incremented with sync/atomic operations. Reads are
// snapshot-on-read and never block writers beyond the atomics.
//
// A nil *Registry is the no-op registry: every method on a nil
// Registry returns nil instruments, and every method on a nil
// instrument (Counter.Add, Histogram.Observe, …) returns immediately.
// Instrumented code therefore needs no conditionals on the disabled
// path — wiring `var reg *telemetry.Registry` through unchanged keeps
// all instrumentation free.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultSpanCapacity is the span-ring size used when New is given a
// non-positive capacity.
const DefaultSpanCapacity = 128

// Registry holds named instruments and the span ring. Construct with
// New; a nil Registry is the valid no-op instance.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string][]func() int64
	histograms map[string]*Histogram
	vecs       map[string]*CounterVec
	spans      *spanRing
}

// New returns an empty registry whose span ring retains the last
// spanCapacity search traces (non-positive means DefaultSpanCapacity).
func New(spanCapacity int) *Registry {
	if spanCapacity <= 0 {
		spanCapacity = DefaultSpanCapacity
	}
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string][]func() int64),
		histograms: make(map[string]*Histogram),
		vecs:       make(map[string]*CounterVec),
		spans:      newSpanRing(spanCapacity),
	}
}

// Noop returns the no-op registry (nil). It exists purely to make
// wiring sites read as intent: cfg.Telemetry = telemetry.Noop().
func Noop() *Registry { return nil }

// Counter is a monotonically increasing uint64. The zero value is
// usable; a nil Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. The zero value is usable; a nil Gauge
// discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterVec is a family of counters partitioned by one label (e.g.
// message type). Children are created on first use; the hot path is a
// read-locked map lookup plus an atomic add. A nil CounterVec discards
// updates.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// With returns the child counter for the given label value, creating
// it on first use. Returns nil on a nil CounterVec.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// Add increments the child for the given label value by delta.
func (v *CounterVec) Add(value string, delta uint64) { v.With(value).Add(delta) }

// Inc increments the child for the given label value by one.
func (v *CounterVec) Inc(value string) { v.With(value).Add(1) }

// Counter returns the registered counter with the given name, creating
// it on first use. Repeated calls with the same name share one
// instrument. Returns nil (the no-op counter) on a nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the registered gauge with the given name, creating it
// on first use. Returns nil on a nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback sampled at snapshot time. Multiple
// callbacks under one name are summed, so every server of a shared
// deployment can register the same gauge and the exposition reports
// the deployment-wide total. No-op on a nil Registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = append(r.gaugeFuncs[name], fn)
}

// Histogram returns the registered histogram with the given name,
// creating it with the given bucket upper bounds on first use (the
// first registration's buckets win; bounds are sorted and
// deduplicated, and an implicit +Inf bucket is appended). Returns nil
// on a nil Registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// CounterVec returns the registered counter family with the given name
// and label key, creating it on first use (the first registration's
// label wins). Returns nil on a nil Registry.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = &CounterVec{label: label, m: make(map[string]*Counter)}
		r.vecs[name] = v
	}
	return v
}

// sortedNames returns the map's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LinearBuckets returns n upper bounds start, start+width, … — e.g.
// LinearBuckets(1, 1, 16) for hop counts.
func LinearBuckets(start, width int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, … — e.g.
// ExpBuckets(int64(100*time.Microsecond), 4, 8) for RPC latencies.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	out := make([]int64, n)
	f := float64(start)
	for i := range out {
		out[i] = int64(f)
		f *= factor
	}
	return out
}
