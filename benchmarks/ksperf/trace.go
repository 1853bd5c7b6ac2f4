package main

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// The traced run records spans from outside the program: the tracer is
// a transport.Network handed to NewPeer whose Send wraps the call and
// whose Bind wraps the handler. One caller runs with one op in flight,
// so every span between an op's start and end belongs to that op.

type spanKind uint8

const (
	kindOp     spanKind = iota // the caller's public-API call
	kindSend                   // a Send through the transport (client side)
	kindHandle                 // a bound handler serving one message
)

// span is one timed interval. Times are ns since the trace started. It
// holds no pointers, so a million of them cost the collector nothing;
// name and peer index the tracer's tables.
type span struct {
	ID     int32
	Parent int32 // -1: none
	Query  int32 // sequence number of the op in flight
	Start  int64
	End    int64
	name   uint16
	peer   uint16
	kind   spanKind
}

// spanName is one entry of the name table: the layer and operation that
// recorded the span and the message type (%T) or op kind it carried.
type spanName struct {
	layerOp string
	msg     string
}

func (n spanName) String() string { return n.layerOp + "/" + n.msg }

type spanCtxKey struct{}

func parentOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanCtxKey{}).(int32); ok {
		return id
	}
	return -1
}

// maxBodySamples bounds the message bodies kept per type for the wire
// codec timings.
const maxBodySamples = 32

type bodySamples struct {
	count   int
	samples []any
}

// spanChunk is the unit span storage grows by, so recording never
// copies what it already holds.
const spanChunk = 1 << 13

type tracer struct {
	inner transport.Network
	layer string // "tcpnet" or "inmem"

	recording atomic.Bool
	query     atomic.Int32
	t0        time.Time

	mu      sync.Mutex
	chunks  []*[spanChunk]span
	n       int
	names   []spanName
	nameIdx map[spanName]uint16
	peers   []string
	peerIdx map[string]uint16
	bodies  map[string]*bodySamples
}

func newTracer(inner transport.Network, tcp bool) *tracer {
	t := &tracer{
		inner: inner, layer: "inmem",
		nameIdx: make(map[spanName]uint16), peerIdx: make(map[string]uint16),
		bodies: make(map[string]*bodySamples),
	}
	if tcp {
		t.layer = "tcpnet"
	}
	return t
}

func (t *tracer) start() {
	t.t0 = time.Now()
	t.recording.Store(true)
}

func (t *tracer) stop() { t.recording.Store(false) }

func (t *tracer) begin(kind spanKind, layerOp, msg, peer string, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	name, ok := t.nameIdx[spanName{layerOp, msg}]
	if !ok {
		name = uint16(len(t.names))
		t.names = append(t.names, spanName{layerOp, msg})
		t.nameIdx[spanName{layerOp, msg}] = name
	}
	peerID, ok := t.peerIdx[peer]
	if !ok {
		peerID = uint16(len(t.peers))
		t.peers = append(t.peers, peer)
		t.peerIdx[peer] = peerID
	}
	id := t.n
	if id%spanChunk == 0 {
		t.chunks = append(t.chunks, new([spanChunk]span))
	}
	t.n++
	// The clock is read under the lock, so IDs are in start order.
	t.chunks[id/spanChunk][id%spanChunk] = span{
		ID: int32(id), Parent: parent, Query: t.query.Load(),
		Start: int64(time.Since(t.t0)), name: name, peer: peerID, kind: kind,
	}
	return int32(id)
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.chunks[id/spanChunk][id%spanChunk].End = now
	t.mu.Unlock()
}

// trace returns what was recorded as one flat span list with its tables.
func (t *tracer) trace() *trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &trace{spans: make([]span, 0, t.n), names: t.names, peers: t.peers, transport: t.layer}
	for i, c := range t.chunks {
		n := spanChunk
		if last := t.n - i*spanChunk; last < n {
			n = last
		}
		tr.spans = append(tr.spans, c[:n]...)
	}
	return tr
}

func (t *tracer) capture(body any) {
	if body == nil {
		return
	}
	name := reflect.TypeOf(body).String()
	t.mu.Lock()
	b := t.bodies[name]
	if b == nil {
		b = &bodySamples{}
		t.bodies[name] = b
	}
	b.count++
	if len(b.samples) < maxBodySamples {
		b.samples = append(b.samples, body)
	}
	t.mu.Unlock()
}

// opSpan brackets one public-API call of the traced caller.
func (t *tracer) opSpan(ctx context.Context, seq int, kind opKind) (context.Context, func()) {
	t.query.Store(int32(seq))
	id := t.begin(kindOp, "client.op", kind.String(), "", -1)
	return context.WithValue(ctx, spanCtxKey{}, id), func() { t.end(id) }
}

// Send implements transport.Sender.
func (t *tracer) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	if !t.recording.Load() {
		return t.inner.Send(ctx, to, body)
	}
	id := t.begin(kindSend, t.layer+".send", reflect.TypeOf(body).String(), string(to), parentOf(ctx))
	resp, err := t.inner.Send(context.WithValue(ctx, spanCtxKey{}, id), to, body)
	t.end(id)
	t.capture(body)
	if err == nil {
		t.capture(resp)
	}
	return resp, err
}

// Bind implements transport.Network. Over inmem the handler's context
// descends from the Send's, so the parent is known; over TCP it is
// found afterwards by enclosure (resolveParents).
func (t *tracer) Bind(addr transport.Addr, handler transport.Handler) (transport.Node, error) {
	var self atomic.Pointer[string]
	node, err := t.inner.Bind(addr, func(ctx context.Context, from transport.Addr, body any) (any, error) {
		if !t.recording.Load() {
			return handler(ctx, from, body)
		}
		peer := ""
		if p := self.Load(); p != nil {
			peer = *p
		}
		msg := reflect.TypeOf(body).String()
		layer := "core"
		if strings.HasPrefix(msg, "chord.") {
			layer = "chord"
		}
		id := t.begin(kindHandle, layer+".handle", msg, peer, parentOf(ctx))
		resp, err := handler(context.WithValue(ctx, spanCtxKey{}, id), from, body)
		t.end(id)
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	resolved := string(node.Addr())
	self.Store(&resolved)
	return node, nil
}

// trace is a finished recording.
type trace struct {
	spans     []span
	names     []spanName
	peers     []string
	transport string // the layer Send spans belong to
}

// resolveParents gives every handler span that crossed a socket its
// parent: an unclaimed Send span of the same message type to the same
// peer that encloses it. Handlers are taken in start order and given,
// of the Sends that enclose them, the one that ends first; by an
// exchange argument that finds a complete assignment whenever one
// exists, also when several such Sends to one peer overlap. It returns
// how many handlers found none.
func (tr *trace) resolveParents() (unmatched int) {
	spans := tr.spans
	type key struct {
		msg  string
		peer uint16
	}
	type sendList struct {
		ids []int32 // in start order, as IDs are
		lo  int     // ids[:lo] ended before the handlers now being placed start
	}
	sends := make(map[key]*sendList)
	for i := range spans {
		if s := &spans[i]; s.kind == kindSend {
			k := key{tr.names[s.name].msg, s.peer}
			if sends[k] == nil {
				sends[k] = &sendList{}
			}
			sends[k].ids = append(sends[k].ids, s.ID)
		}
	}
	claimed := make([]bool, len(spans))
	for i := range spans {
		h := &spans[i]
		if h.kind != kindHandle || h.Parent >= 0 {
			continue
		}
		list := sends[key{tr.names[h.name].msg, h.peer}]
		if list == nil {
			unmatched++
			continue
		}
		for list.lo < len(list.ids) && spans[list.ids[list.lo]].End < h.Start {
			list.lo++
		}
		best := int32(-1)
		for _, id := range list.ids[list.lo:] {
			s := &spans[id]
			if s.Start > h.Start {
				break
			}
			if !claimed[id] && s.End >= h.End && (best < 0 || s.End < spans[best].End) {
				best = id
			}
		}
		if best < 0 {
			unmatched++
			continue
		}
		h.Parent = best
		claimed[best] = true
	}
	return unmatched
}

// childIndex lists each span's children in start order.
func childIndex(spans []span) [][]int32 {
	kids := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], spans[i].ID)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of it its children
// cover (children may overlap each other and are clipped to the span).
func selfTime(spans []span, kids [][]int32, id int32) int64 {
	s := &spans[id]
	covered, edge := int64(0), s.Start
	for _, k := range kids[id] { // start order
		c := &spans[k]
		lo, hi := c.Start, c.End
		if lo < edge {
			lo = edge
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.End - s.Start - covered
}

// blockingPath attributes the whole of span id's duration to the spans
// the result waited for: walking back from the end, the child that
// finished last before the point reached is on the path, the gap after
// it is the span's own time, and children still running at that point
// ran beside the path, not on it. The attributed times sum to the
// span's duration exactly.
func blockingPath(spans []span, kids [][]int32, id int32, add func(id int32, ns int64)) {
	s := &spans[id]
	byEnd := append([]int32(nil), kids[id]...)
	sort.Slice(byEnd, func(a, b int) bool { return spans[byEnd[a]].End > spans[byEnd[b]].End })
	at := s.End
	for _, k := range byEnd {
		c := &spans[k]
		if c.End > at || c.Start < s.Start {
			continue
		}
		add(id, at-c.End)
		blockingPath(spans, kids, k, add)
		at = c.Start
	}
	add(id, at-s.Start)
}

// layerOf names the module a span's self time belongs to.
func (tr *trace) layerOf(s *span) string {
	switch s.kind {
	case kindOp:
		return "client"
	case kindSend:
		return tr.transport
	}
	msg := tr.names[s.name].msg
	switch {
	case strings.HasPrefix(msg, "chord."):
		return "chord"
	case msg == "core.msgTQuery":
		return "core.root"
	case msg == "core.msgSubQuery", msg == "core.msgSubQueryBatch":
		return "core.scan"
	case msg == "core.msgInsertEntry":
		return "core.insert"
	case msg == "core.msgDeleteEntry":
		return "core.delete"
	}
	return "core.other"
}

// spanTotals is what the summary keeps per layer and per span name.
type spanTotals struct {
	SpansPerOp  float64 `json:"spans_per_op"`
	SelfUsPerOp float64 `json:"self_us_per_op"`
	PathUsPerOp float64 `json:"path_us_per_op"`

	spans, selfNS, pathNS int64
}

// traceSummary is the per-layer reading of one traced run.
type traceSummary struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Ops      int     `json:"ops"`
	Spans    int     `json:"spans"`
	OpUsMean float64 `json:"op_us_mean"`
	// TracedOpsPerS and UntracedOpsPerS are the two sides of
	// trace.overhead_frac, both from one caller.
	TracedOpsPerS   float64 `json:"traced_ops_per_s"`
	UntracedOpsPerS float64 `json:"untraced_ops_per_s"`
	// SelfSumOverLatency is Σ self time / Σ op latency: 1 when nothing
	// overlaps, above 1 by the share of work that ran in parallel waves.
	SelfSumOverLatency float64 `json:"self_sum_over_latency"`
	// PathSumOverLatency is Σ blocking-path time / Σ op latency: 1 by
	// construction, recorded as a check on the arithmetic.
	PathSumOverLatency float64 `json:"path_sum_over_latency"`
	UnmatchedHandlers  int     `json:"unmatched_handlers"`
	Orphans            int     `json:"orphan_spans"`
	// RTTSelfUsP50/P99 are over Send spans with a matched handler: the
	// Send's duration minus the handler's, i.e. encode, mux, listener
	// queue, loopback and decode.
	RTTSelfUsP50 float64                `json:"rtt_self_us_p50"`
	RTTSelfUsP99 float64                `json:"rtt_self_us_p99"`
	Layers       map[string]*spanTotals `json:"layers"`
	Names        map[string]*spanTotals `json:"names"`
}

// summarize resolves parents and computes self and blocking-path time
// per layer and per span name over ops traced ops.
func (tr *trace) summarize(ops int) *traceSummary {
	spans := tr.spans
	sum := &traceSummary{
		Ops: ops, Spans: len(spans),
		Layers: make(map[string]*spanTotals), Names: make(map[string]*spanTotals),
	}
	sum.UnmatchedHandlers = tr.resolveParents()
	kids := childIndex(spans)
	bucket := func(m map[string]*spanTotals, k string) *spanTotals {
		if m[k] == nil {
			m[k] = &spanTotals{}
		}
		return m[k]
	}
	var latency, selfSum, pathSum int64
	var rtt []int64
	for i := range spans {
		s := &spans[i]
		self := selfTime(spans, kids, s.ID)
		for _, b := range []*spanTotals{bucket(sum.Layers, tr.layerOf(s)), bucket(sum.Names, tr.names[s.name].String())} {
			b.spans++
			b.selfNS += self
		}
		selfSum += self
		switch {
		case s.kind == kindOp:
			latency += s.End - s.Start
			blockingPath(spans, kids, s.ID, func(id int32, ns int64) {
				p := &spans[id]
				bucket(sum.Layers, tr.layerOf(p)).pathNS += ns
				bucket(sum.Names, tr.names[p.name].String()).pathNS += ns
				pathSum += ns
			})
		case s.Parent < 0:
			sum.Orphans++
		case s.kind == kindSend && len(kids[s.ID]) > 0:
			rtt = append(rtt, self)
		}
	}
	perOp := func(m map[string]*spanTotals) {
		for _, b := range m {
			b.SpansPerOp = float64(b.spans) / float64(ops)
			b.SelfUsPerOp = float64(b.selfNS) / 1e3 / float64(ops)
			b.PathUsPerOp = float64(b.pathNS) / 1e3 / float64(ops)
		}
	}
	perOp(sum.Layers)
	perOp(sum.Names)
	if latency > 0 {
		sum.OpUsMean = float64(latency) / 1e3 / float64(ops)
		sum.SelfSumOverLatency = float64(selfSum) / float64(latency)
		sum.PathSumOverLatency = float64(pathSum) / float64(latency)
	}
	if len(rtt) > 0 {
		sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
		sum.RTTSelfUsP50 = quantile(rtt, 0.50)
		sum.RTTSelfUsP99 = quantile(rtt, 0.99)
	}
	return sum
}

// spanJSON is a span as the trace file shows it.
type spanJSON struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
	Name   string `json:"name"` // layer.op/<message type>
	Peer   string `json:"peer"` // destination (send) or serving peer (handle)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// firstOps returns the spans of the first n traced ops.
func (tr *trace) firstOps(n int) []spanJSON {
	var out []spanJSON
	seen := 0
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.kind == kindOp {
			if seen++; seen > n {
				break
			}
		}
		out = append(out, spanJSON{s.ID, s.Parent, s.Query, tr.names[s.name].String(), tr.peers[s.peer], s.Start, s.End})
	}
	return out
}
