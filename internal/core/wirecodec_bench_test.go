package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// gobReqEnvelope and gobRespEnvelope mirror the request/response
// wrappers the legacy gob transport sends per RPC. They matter for an
// honest byte comparison: gob cannot ship a message without interface-
// wrapping it, and the interface encoding re-transmits the registered
// concrete type name ("core.msgSubQuery") on every message — only the
// type descriptors are once-per-stream.
type gobReqEnvelope struct {
	From string
	Body any
}

type gobRespEnvelope struct {
	Body any
	Err  string
}

// wireBenchSmall is the small-message hot path: the per-node superset
// step a root fans out thousands of times per exhaustive query, and
// its typical few-match answer.
func wireBenchSmall() (msgSubQuery, respSubQuery) {
	req := msgSubQuery{
		Instance: DefaultInstance,
		Dim:      10,
		Vertex:   697,
		Root:     1001,
		QueryKey: keyword.NewSet("distributed", "search").Key(),
		Limit:    128,
		GenDim:   7,
	}
	resp := respSubQuery{
		Matches: []Match{
			{ObjectID: "obj-00017", SetKey: keyword.NewSet("distributed", "search", "go").Key()},
			{ObjectID: "obj-00329", SetKey: keyword.NewSet("distributed", "search").Key()},
		},
		Remaining: 5,
		Children:  []wireEdge{{Vertex: 185, Dim: 3}, {Vertex: 441, Dim: 5}},
	}
	return req, resp
}

// wireBenchBatch is the large-message path: a mega-wave frame answer
// in which 16 units of the request had 64 matches each (the units in
// between had nothing and are not in the frame), the shape the arena
// decoder exists for.
func wireBenchBatch() respSubQueryBatch {
	var resp respSubQueryBatch
	resp.Hits = make([]respSubUnit, 16)
	for i := range resp.Hits {
		u := &resp.Hits[i]
		u.Index = 3 * i
		u.Matches = make([]Match, 64)
		for j := range u.Matches {
			u.Matches[j] = Match{
				ObjectID: "obj-" + strconv.Itoa(i) + "-" + strconv.Itoa(j),
				SetKey:   keyword.NewSet("hub", "w"+strconv.Itoa(j%8)).Key(),
			}
		}
		u.Children = []wireEdge{{Vertex: uint64(i), Dim: i % 10}}
	}
	return resp
}

// binarySize returns the v2 codec payload size of body (the v2 frame
// adds a fixed ~9 bytes of header per message on top; BenchmarkWireRPC
// gates the full-frame figure end to end).
func binarySize(b *testing.B, body any) int {
	c, ok := wire.Lookup(body)
	if !ok {
		b.Fatalf("no wire codec for %T", body)
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	c.Encode(w, body)
	return w.Len()
}

// gobSteadySize returns the steady-state per-message gob cost of body
// on a warm stream: type descriptors (sent once per connection by the
// gob transport) are primed away, so this is the marginal bytes every
// subsequent request on a pooled connection pays. This is the most
// favorable accounting for gob — fresh connections pay the descriptors
// again.
func gobSteadySize(b *testing.B, body any) int {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(body); err != nil {
		b.Fatal(err)
	}
	primed := buf.Len()
	if err := enc.Encode(body); err != nil {
		b.Fatal(err)
	}
	return buf.Len() - primed
}

// BenchmarkWireCodec pins the tentpole's codec-level payoff: encoding
// the small-message hot path (msgSubQuery request + respSubQuery
// answer) with the hand-rolled v2 codec must cost at most half the
// bytes that the gob transport marshals for the same exchange — the
// request/response envelopes it actually sends, measured at gob's
// steady state with stream type descriptors already amortized away,
// which is the cheapest gob ever gets. Byte sizes are deterministic,
// so the gate is unconditional; encode/decode time and allocations are
// reported by the sub-benchmarks for both codecs.
func BenchmarkWireCodec(b *testing.B) {
	RegisterTypes()
	req, resp := wireBenchSmall()
	batch := wireBenchBatch()
	reqEnv := gobReqEnvelope{From: "127.0.0.1:41234", Body: req}
	respEnv := gobRespEnvelope{Body: resp}
	batchEnv := gobRespEnvelope{Body: batch}

	binBytes := binarySize(b, req) + binarySize(b, resp)
	gobBytes := gobSteadySize(b, reqEnv) + gobSteadySize(b, respEnv)
	ratio := float64(binBytes) / float64(gobBytes)
	if ratio > 0.5 {
		b.Fatalf("small-message path: binary %d B vs gob %d B (%.2fx) — want <= 0.5x",
			binBytes, gobBytes, ratio)
	}
	b.Logf("small path: binary %d B, gob steady-state %d B (%.2fx); batch: binary %d B, gob %d B",
		binBytes, gobBytes, ratio, binarySize(b, batch), gobSteadySize(b, batchEnv))

	type benchBody struct {
		name   string
		body   any // binary codec side
		gobMsg any // what the gob transport encodes for it
	}
	for _, bb := range []benchBody{
		{"small-req", req, reqEnv},
		{"small-resp", resp, respEnv},
		{"batch-resp", batch, batchEnv},
	} {
		codec, _ := wire.Lookup(bb.body)

		b.Run("encode/binary/"+bb.name, func(b *testing.B) {
			w := wire.GetWriter()
			defer wire.PutWriter(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				codec.Encode(w, bb.body)
			}
			b.ReportMetric(float64(w.Len()), "wire-B/op")
		})
		b.Run("encode/gob/"+bb.name, func(b *testing.B) {
			enc := gob.NewEncoder(io.Discard)
			if err := enc.Encode(bb.gobMsg); err != nil { // prime descriptors
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(bb.gobMsg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(gobSteadySize(b, bb.gobMsg)), "wire-B/op")
		})

		w := wire.GetWriter()
		codec.Encode(w, bb.body)
		payload := append([]byte(nil), w.Buf...)
		wire.PutWriter(w)
		b.Run("decode/binary/"+bb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(wire.NewReader(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/gob/"+bb.name, func(b *testing.B) {
			// Replay a warm stream: descriptors at the head are paid
			// once per chunk of chunkN messages, as on a pooled
			// connection.
			const chunkN = 512
			var stream bytes.Buffer
			enc := gob.NewEncoder(&stream)
			for i := 0; i < chunkN+1; i++ {
				if err := enc.Encode(bb.gobMsg); err != nil {
					b.Fatal(err)
				}
			}
			raw := stream.Bytes()
			isReq := bb.name == "small-req"
			b.ReportAllocs()
			var dec *gob.Decoder
			for i := 0; i < b.N; i++ {
				if i%chunkN == 0 {
					dec = gob.NewDecoder(bytes.NewReader(raw))
				}
				var err error
				if isReq {
					err = dec.Decode(new(gobReqEnvelope))
				} else {
					err = dec.Decode(new(gobRespEnvelope))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
