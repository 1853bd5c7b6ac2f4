package core

import (
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// wireBenchSmall is the small-message hot path: the per-node superset
// step — a one-unit sub-query frame — a root sends for every vertex a
// batch could not carry, and its typical few-match answer.
func wireBenchSmall() (msgSubQueryBatch, respSubQueryBatch) {
	req := msgSubQueryBatch{
		Instance: DefaultInstance,
		Root:     1001,
		QueryKey: keyword.NewSet("distributed", "search").Key(),
		Limit:    128,
		Units:    []wireUnit{{Vertex: 697}},
	}
	resp := respSubQueryBatch{Hits: []respSubUnit{{
		Matches: []Match{
			{ObjectID: "obj-00017", SetKey: keyword.NewSet("distributed", "search", "go").Key()},
			{ObjectID: "obj-00329", SetKey: keyword.NewSet("distributed", "search").Key()},
		},
		Remaining: 5,
	}}}
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
	}
	return resp
}

// wireBenchChunk is one page of a range migration: a puller's pull,
// resuming after the entry it applied last, and the source's answer of
// eight entries over two vertices — the next page's resume point is
// its last entry.
func wireBenchChunk() (msgMigrateChunk, respMigrateChunk) {
	var resp respMigrateChunk
	for i := 0; i < 8; i++ {
		resp.Entries = append(resp.Entries, store.Entry{
			Instance: DefaultInstance,
			Vertex:   uint64(697 + i/4),
			SetKey:   keyword.NewSet("distributed", "search").Key(),
			ObjectID: "obj-" + strconv.Itoa(10017+i),
		})
	}
	req := msgMigrateChunk{
		NewID:            0x8000000000000001,
		OwnerID:          0x9e3779b97f4a7c15,
		Cursor:           wireCursor{Started: true, Entry: store.Entry{Instance: DefaultInstance, Vertex: 696, SetKey: keyword.NewSet("distributed", "search").Key(), ObjectID: "obj-10016"}},
		MaxEntries:       defaultChunkEntries,
		MaxBytes:         defaultChunkBytes,
		DeadlineUnixNano: 1754500000000000000,
	}
	return req, resp
}

// wireBenchWrite is a client's write pair: an insert that names its
// client and an anonymous delete, both of one entry.
func wireBenchWrite() (msgInsertEntry, msgDeleteEntry) {
	key := keyword.NewSet("distributed", "search").Key()
	e := store.Entry{Instance: DefaultInstance, Vertex: 697, SetKey: key, ObjectID: "obj-10017"}
	return msgInsertEntry{Entry: e, ClientID: "client-7"}, msgDeleteEntry{Entry: e}
}

// wireBenchCase is one message the codec test and benchmark share,
// with its pinned payload size.
type wireBenchCase struct {
	name  string
	body  any
	bytes int
}

func wireBenchCases() []wireBenchCase {
	RegisterTypes()
	req, resp := wireBenchSmall()
	// The small request is 35 B: Instance "main" 5 (length byte + 4),
	// Root 1001 2, QueryKey "distributed search" 19, Limit 128 2 (zigzag
	// 256), DeadlineUnixNano 0 1, the unit count 1, the unit's Vertex
	// 697 2 and Skip 0 1, Class 1, Relay 1. Its answer is 71 B: the
	// frame's match total 1, the hit count 1, the hit's Index 1 and
	// match count 1, the two matches 65 (object ID and set key, each a
	// length byte and its bytes, then Vertex and Depth, one byte each:
	// 10+22+2 and 10+19+2), Remaining 1, ErrCode 1.
	//
	// The per-vertex message pair this replaced moved 33 + 67 B for the
	// same step: no deadline, no unit count, and an answer without the
	// total, count, index and error code; the vertex sat beside the
	// root. Before the root generated every SBT child list itself the
	// three sizes were 35, 74 and 18 771 B. The request lost Dim and
	// GenDim (one zigzag byte each: 10 and 7); the answer lost its
	// two-edge child list (a count byte, then 2 + 1 B for (185, 3) and
	// for (441, 5)); each of the 16 batch hits lost a one-edge list
	// (count, vertex and dimension, one byte each).
	//
	// The migration pull is 67 B: NewID and OwnerID 8 each, the cursor
	// 37 (Started 1, then the entry as store.Entry writes it: Vertex 696
	// 2, Instance 5, SetKey 19, ObjectID "obj-10016" 10), MaxEntries 512
	// 2 and MaxBytes 256 KiB 3 (zigzag), DeadlineUnixNano 9. Its page is
	// 290 B: the entry count 1, eight entries of 36 (Vertex 2, Instance
	// 5, SetKey 19, ObjectID 10), Done 1. Until the page's last entry
	// became the resume point the page also carried that entry again as
	// a 37 B cursor (327 B), and a page entry and the cursor wrote the
	// instance before the vertex.
	//
	// A client's insert is 45 B: the entry 36 (Vertex 697 2, Instance 5,
	// SetKey 19, ObjectID "obj-10017" 10), ClientID "client-7" 9. The
	// anonymous delete of the same entry is 37 B: its ClientID is one
	// length byte.
	chunkReq, chunkResp := wireBenchChunk()
	ins, del := wireBenchWrite()
	return []wireBenchCase{
		{"small-req", req, 35},
		{"small-resp", resp, 71},
		{"batch-resp", wireBenchBatch(), 18723},
		{"chunk-req", chunkReq, 67},
		{"chunk-resp", chunkResp, 290},
		{"insert-req", ins, 45},
		{"delete-req", del, 37},
	}
}

// binarySize returns the codec payload size of body (a frame adds a
// fixed ~9 bytes of header per message on top; tcpnet's
// TestWireRPCBytesPinned pins a full-frame figure).
func binarySize(t testing.TB, body any) int {
	c, ok := wire.Lookup(body)
	if !ok {
		t.Fatalf("no wire codec for %T", body)
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	c.Encode(w, body)
	return w.Len()
}

// TestWireCodecBytesPinned pins the payload bytes of the small-message
// hot path (a one-unit sub-query frame and its answer), of one
// sparse batch response, of one migration pull and its page, and of a
// client's insert and delete. Sizes are deterministic; a change here is a
// change to a registered message's encoding (see tcpnet's wireMagic
// for what that requires). For the record of what the codec replaced:
// gob's steady-state cost for the same messages was 126 + 155 B and
// 19 943 B at its last commit (results/README.md).
func TestWireCodecBytesPinned(t *testing.T) {
	for _, tc := range wireBenchCases() {
		if got := binarySize(t, tc.body); got != tc.bytes {
			t.Errorf("%s encodes to %d B, want %d", tc.name, got, tc.bytes)
		}
	}
}

// TestWireEncodeAllocatesNothing: MarshalWire has a value receiver, so
// the codec encodes the boxed body in place — on a warm Writer no
// message, the large batch response included, allocates.
func TestWireEncodeAllocatesNothing(t *testing.T) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for _, tc := range wireBenchCases() {
		c, _ := wire.Lookup(tc.body)
		c.Encode(w, tc.body) // grow the buffer
		if allocs := testing.AllocsPerRun(100, func() {
			w.Reset()
			c.Encode(w, tc.body)
		}); allocs != 0 {
			t.Errorf("encoding %s allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkWireCodec reports encode and decode time, allocations and
// payload bytes of the codec on those seven messages. It gates nothing:
// ksperf's wire.* layer is the measured record and
// TestWireCodecBytesPinned holds the deterministic part.
func BenchmarkWireCodec(b *testing.B) {
	for _, bb := range wireBenchCases() {
		codec, _ := wire.Lookup(bb.body)

		b.Run("encode/"+bb.name, func(b *testing.B) {
			w := wire.GetWriter()
			defer wire.PutWriter(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				codec.Encode(w, bb.body)
			}
			b.ReportMetric(float64(w.Len()), "wire-B/op")
		})

		w := wire.GetWriter()
		codec.Encode(w, bb.body)
		payload := append([]byte(nil), w.Buf...)
		wire.PutWriter(w)
		b.Run("decode/"+bb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(wire.NewReader(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
