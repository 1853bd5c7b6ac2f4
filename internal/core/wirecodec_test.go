package core

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// roundTrip encodes msg through its registered codec and decodes it
// back, failing the test on any mismatch. The decoded value must be
// deeply equal to the original — what makes an answer over TCP the
// answer inmem gives.
func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	c, ok := wire.Lookup(msg)
	if !ok {
		t.Fatalf("no wire codec registered for %T", msg)
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	c.Encode(w, msg)
	r := wire.NewReader(w.Buf)
	got, err := c.Decode(r)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("decode %T left trailing bytes: %v", msg, err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("%T round trip mismatch:\n got %+v\nwant %+v", msg, got, msg)
	}
	return got
}

func TestCoreWireRoundTrip(t *testing.T) {
	RegisterTypes()
	matches := []Match{
		{ObjectID: "obj-1", SetKey: "a b c", Vertex: 7, Depth: 0},
		{ObjectID: "obj-2", SetKey: "", Vertex: 1 << 40, Depth: -3},
	}
	entries := []store.Entry{
		{Instance: "default", Vertex: 12, SetKey: "k", ObjectID: "o"},
		{Instance: "", Vertex: 0, SetKey: "", ObjectID: ""},
	}
	cursor := wireCursor{Started: true, Entry: store.Entry{Instance: "i", Vertex: 99, SetKey: "sk", ObjectID: "oid"}}

	for _, msg := range []any{
		msgInsertEntry{Entry: store.Entry{Instance: "default", Vertex: 42, SetKey: "a b", ObjectID: "doc-1"}, ClientID: "c1"},
		msgInsertEntry{},
		respAck{},
		msgDeleteEntry{Entry: store.Entry{Instance: "x", Vertex: 1, SetKey: "s", ObjectID: "o"}, ClientID: ""},
		respDeleteEntry{Found: true},
		respDeleteEntry{},
		msgTQuery{Instance: "default", Dim: 10, Vertex: 1023, QueryKey: "q", Threshold: 50,
			Order: 1, Cumulative: true, SessionID: 0xfeedface12345678, NoCache: true,
			WantTrace: true, ClientID: "c"},
		msgTQuery{Instance: "default", Dim: 10, Vertex: 4, QueryKey: "kw1", Threshold: All,
			Class: ClassPrefix, DimMask: 0x3ff},
		msgTQuery{Instance: "default", Dim: 6, Vertex: 9, QueryKey: "a b", Threshold: All,
			Class: ClassPin},
		msgTQuery{},
		respTQuery{Matches: matches, Exhausted: true, SessionID: 7, SubNodes: 3, SubMsgs: 9,
			Rounds: 2, FailedNodes: 1, PhysFrames: 4, CacheHit: true, ErrCode: -2,
			Trace: []TraceStep{{Vertex: 1, Matches: 2, Failed: false}, {Vertex: 2, Matches: 0, Failed: true}}},
		respTQuery{},
		msgSubQueryBatch{Instance: "i", Root: 63, QueryKey: "q", Limit: 100,
			Units: []wireUnit{{Vertex: 1, Skip: 0}, {Vertex: 2, Skip: 10}}},
		msgSubQueryBatch{Instance: "i", Root: 2, QueryKey: "kw", Limit: 5,
			Units: []wireUnit{{Vertex: 2}}, Class: ClassPrefix},
		msgSubQueryBatch{Instance: "i", Root: 100, QueryKey: "qk", Limit: 10,
			Units: []wireUnit{{Vertex: 200, Skip: 5}}, Relay: true},
		msgSubQueryBatch{Instance: "i", Root: 9, QueryKey: "a b", Limit: -1,
			Units: []wireUnit{{Vertex: 9}}, Relay: true, Class: ClassPin}, // the relayed half of a pin
		msgSubQueryBatch{},
		// Sparse: units 1–3 and 5–8 of the request had nothing to say.
		respSubQueryBatch{Hits: []respSubUnit{
			{Index: 0, Matches: matches, Remaining: 2, ErrCode: 0},
			{Index: 4, Matches: nil, Remaining: 0, ErrCode: 3},
			{Index: 9, Matches: matches[:1], Remaining: 0, ErrCode: 0},
		}},
		// Indices out of order, repeated and negative travel as written:
		// judging them against the request is the root's job (sendBatch).
		respSubQueryBatch{Hits: []respSubUnit{{Index: 7, Remaining: 1}, {Index: 7, ErrCode: 2}, {Index: -1, Remaining: 3}}},
		respSubQueryBatch{Hits: []respSubUnit{{Matches: matches, Remaining: 17}}}, // a one-unit answer
		respSubQueryBatch{},
		msgMigrateChunk{NewID: 1 << 63, OwnerID: 77, Cursor: cursor, MaxEntries: 500,
			MaxBytes: 1 << 20},
		msgMigrateChunk{NewID: 3, OwnerID: 4, MaxEntries: 1}, // a first pull: no cursor
		respMigrateChunk{Entries: entries, Done: true},
		respMigrateChunk{},
		msgMigrateCommit{NewID: 5, OwnerID: 6},
		respMigrateCommit{Dropped: 321},
	} {
		roundTrip(t, msg)
	}
}

// TestRetiredWireIDsStayUnassigned: IDs 5 and 6 carried the dedicated
// pin request/response pair, IDs 9 and 10 the per-vertex sub-query
// pair, ID 13 the bulk insert a leaving node pushed its tables with.
// No codec may ever claim them again — a
// frame from a peer that still sends them must fail to decode (tcpnet's
// TestRetiredTypeIDFrameRejected), not be misread as a newer message.
func TestRetiredWireIDsStayUnassigned(t *testing.T) {
	RegisterTypes()
	for _, id := range []uint16{5, 6, 9, 10, 13} {
		if c, ok := wire.LookupID(id); ok {
			t.Errorf("retired wire ID %d is registered to %s", id, c.Name())
		}
	}
}

// TestBatchArenaDecode verifies the near-zero-copy batch path: all
// match structs of a decoded respSubQueryBatch share one backing
// array — however far apart the hits sit in the request — and the
// per-hit windows are capped so appends cannot clobber a neighboring
// hit.
func TestBatchArenaDecode(t *testing.T) {
	RegisterTypes()
	in := respSubQueryBatch{Hits: []respSubUnit{
		{Index: 2, Matches: []Match{{ObjectID: "a", SetKey: "x", Vertex: 1}, {ObjectID: "b", SetKey: "y", Vertex: 2}}},
		{Index: 400, Matches: []Match{{ObjectID: "c", SetKey: "z", Vertex: 3}}},
	}}
	out := roundTrip(t, in).(respSubQueryBatch)
	m0, m1 := out.Hits[0].Matches, out.Hits[1].Matches
	if cap(m0) != len(m0) || cap(m1) != len(m1) {
		t.Fatalf("unit match windows not capacity-capped: cap=%d,%d len=%d,%d",
			cap(m0), cap(m1), len(m0), len(m1))
	}
	// Contiguity: unit 1's first element must sit right after unit 0's
	// last in the same arena.
	end0 := uintptr(unsafe.Pointer(&m0[len(m0)-1])) + unsafe.Sizeof(Match{})
	if end0 != uintptr(unsafe.Pointer(&m1[0])) {
		t.Fatal("batch units decoded into separate allocations, want one arena")
	}
}

// TestBatchDecodeAllocs pins the allocation count of the batch decode
// path: one []Match arena, one Hits slice, one string arena, the
// Reader, and the boxed return value — independent of match count and
// of how many units the request had.
func TestBatchDecodeAllocs(t *testing.T) {
	RegisterTypes()
	units := make([]respSubUnit, 16)
	for i := range units {
		units[i].Index = 64 * i
		ms := make([]Match, 64)
		for j := range ms {
			ms[j] = Match{ObjectID: "object-id-123456", SetKey: "alpha beta gamma", Vertex: uint64(i*64 + j)}
		}
		units[i].Matches = ms
	}
	msg := respSubQueryBatch{Hits: units}
	c, _ := wire.Lookup(msg)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	c.Encode(w, msg)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Decode(wire.NewReader(w.Buf)); err != nil {
			t.Fatal(err)
		}
	})
	// 1024 matches with two strings each would cost >2048 allocations
	// decoded naively; the arena path needs a small constant.
	if allocs > 8 {
		t.Errorf("batch decode allocates %.0f times for 1024 matches, want <= 8", allocs)
	}
}

// TestCorruptBatchTotalsDoNotOverAllocate: a frame whose declared
// frame-level total disagrees with the per-unit counts must still
// decode correctly (growing past the bogus total) or error — never
// trust the redundant field.
func TestCorruptBatchTotalsDoNotOverAllocate(t *testing.T) {
	RegisterTypes()
	msg := respSubQueryBatch{Hits: []respSubUnit{
		{Index: 5, Matches: []Match{{ObjectID: "a", SetKey: "b", Vertex: 1}}},
	}}
	c, _ := wire.Lookup(msg)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	c.Encode(w, msg)
	// Zero out the frame-level total (first varint byte): per-unit count
	// still says 1 match, so the decoder must grow its arena.
	buf := append([]byte(nil), w.Buf...)
	if buf[0] != 1 {
		t.Fatalf("test assumes 1-byte total varint, got %#x", buf[0])
	}
	buf[0] = 0
	got, err := c.Decode(wire.NewReader(buf))
	if err != nil {
		t.Fatalf("decode with understated total: %v", err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("decode with understated total mismatch: %+v", got)
	}
}
