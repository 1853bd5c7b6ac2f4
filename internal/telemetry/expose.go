package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Snapshot is a point-in-time copy of every registered instrument,
// suitable for JSON encoding and diffing across runs. CounterVec
// children are flattened to `name{label="value"}` keys; summed
// GaugeFunc callbacks appear alongside plain gauges. Map keys encode
// in sorted order, so two snapshots of the same deployment diff
// cleanly line by line.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	SpansTotal uint64                       `json:"spans_total,omitempty"`
}

// Snapshot captures the current value of every instrument. A nil
// Registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, vec := range r.vecs {
		vec.mu.RLock()
		for value, c := range vec.m {
			snap.Counters[fmt.Sprintf("%s{%s=%q}", name, vec.label, value)] = c.Value()
		}
		vec.mu.RUnlock()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, fns := range r.gaugeFuncs {
		var sum int64
		for _, fn := range fns {
			sum += fn()
		}
		snap.Gauges[name] += sum
	}
	for name, h := range r.histograms {
		snap.Histograms[name] = h.snapshot()
	}
	if r.spans != nil {
		r.spans.mu.Lock()
		snap.SpansTotal = r.spans.total
		r.spans.mu.Unlock()
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes every instrument in the Prometheus text
// exposition format (text/plain; version 0.0.4): counters and vec
// children as `counter`, gauges (including summed GaugeFuncs) as
// `gauge`, histograms as cumulative `_bucket{le=…}` series with
// `_sum` and `_count`. A nil Registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	for _, name := range sortedNames(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n",
			name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.vecs) {
		vec := r.vecs[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
			return err
		}
		vec.mu.RLock()
		values := sortedNames(vec.m)
		for _, value := range values {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n",
				name, vec.label, value, vec.m[value].Value()); err != nil {
				vec.mu.RUnlock()
				return err
			}
		}
		vec.mu.RUnlock()
	}

	gauges := make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	for name, fns := range r.gaugeFuncs {
		var sum int64
		for _, fn := range fns {
			sum += fn()
		}
		gauges[name] += sum
	}
	lastFamily := ""
	for _, name := range sortedNames(gauges) {
		// Gauges registered with inline labels (name{label="v"}) share
		// one metric family: the TYPE line carries the bare family name
		// and is emitted once per family, not per labelled series.
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, gauges[name]); err != nil {
			return err
		}
	}

	for _, name := range sortedNames(r.histograms) {
		snap := r.histograms[name].snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, b := range snap.Buckets {
			le := "+Inf"
			if b.UpperBound != infBound {
				le = fmt.Sprintf("%d", b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n",
			name, snap.Sum, name, snap.Count); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusString renders WritePrometheus to a string (test and
// diagnostic helper).
func (r *Registry) PrometheusString() string {
	var sb strings.Builder
	_ = r.WritePrometheus(&sb)
	return sb.String()
}
