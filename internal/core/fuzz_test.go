package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// liveWireIDs are the index protocol's registered type IDs; 5, 6, 9, 10
// and 13 are retired.
var liveWireIDs = []uint16{
	wireMsgInsertEntry, wireRespAck, wireMsgDeleteEntry, wireRespDeleteEntry,
	wireMsgTQuery, wireRespTQuery, wireMsgSubQueryBatch, wireRespSubQueryBatch,
	wireMsgMigrateChunk, wireRespMigrateChunk, wireMsgMigrateCommit, wireRespMigrateCommit,
	wireMsgSoftPromote, wireMsgSoftInvalidate,
}

// FuzzCoreDecode fuzzes every index-protocol decoder, wire IDs 1–4, 7, 8,
// 11, 12 and 14–19: the first input byte picks the ID (modulo the live set),
// the rest is the payload. Arbitrary bytes must give a clean error —
// trailing bytes count, as they do in a frame — or a value that
// re-encodes to exactly the input. The codecs reject the non-canonical
// forms, an overlong varint and a bool byte other than 0 or 1. The one
// field that may differ is a batch response's frame-level match total:
// the decoder sizes its arena from it and the encoder writes the true
// sum, so a total that disagrees with the hits is corrected, not
// rejected. Decoding never panics, and allocates no more than the
// Reader.Count bounds allow: one arena copy of the payload plus the
// widest slices it can claim — a batch response's hits (48 B per 4
// bytes) beside its matches (48 B per 4 bytes, counted twice: the
// frame's match arena, and the hits past an understated total), with
// room for size-class rounding. These are the bytes a listener hands to
// core from any peer. A short run is wired into `make fuzz-smoke`.
func FuzzCoreDecode(f *testing.F) {
	RegisterTypes()
	matches := []Match{{ObjectID: "o1", SetKey: "a b", Vertex: 3, Depth: 1}, {ObjectID: "o2", SetKey: "a", Vertex: 1}}
	entries := []store.Entry{{Instance: "main", Vertex: 7, SetKey: "a b", ObjectID: "o1"}}
	cursor := wireCursor{Started: true, Entry: entries[0]}
	for _, msg := range []any{
		msgInsertEntry{Entry: entries[0], ClientID: "c"},
		respAck{},
		msgDeleteEntry{Entry: entries[0]},
		respDeleteEntry{Found: true},
		msgTQuery{Instance: "main", Dim: 8, Vertex: 3, QueryKey: "a", Threshold: 10, Class: ClassPrefix, DimMask: 6},
		respTQuery{Matches: matches, Exhausted: true, SubNodes: 4, Trace: []TraceStep{{Vertex: 1, Matches: 2}}, SoftAddrs: []string{"x"}},
		msgSubQueryBatch{Instance: "main", Root: 1, QueryKey: "a", Limit: -1, Units: []wireUnit{{Vertex: 9, Skip: 2}}, Relay: true},
		respSubQueryBatch{Hits: []respSubUnit{{Index: 0, Matches: matches, Remaining: 3}}},
		msgSubQueryBatch{Instance: "main", Root: 1, QueryKey: "a", Limit: 5, Units: []wireUnit{{Vertex: 2, Skip: 3}}},
		respSubQueryBatch{Hits: []respSubUnit{{Index: 0, Matches: matches, Remaining: 1}, {Index: 4, ErrCode: 2}}},
		msgMigrateChunk{NewID: 1 << 63, OwnerID: 77, Cursor: cursor, MaxEntries: 500},
		respMigrateChunk{Entries: entries, Done: true},
		msgMigrateCommit{NewID: 5, OwnerID: 6, DeadlineUnixNano: 7},
		respMigrateCommit{Dropped: 3},
		msgSoftPromote{Instance: "main", Vertex: 7, Gen: 2},
		msgSoftInvalidate{Instance: "main", Vertex: 7, Gen: 2, SetKey: "a"},
	} {
		c, _ := wire.Lookup(msg)
		var w wire.Writer
		w.Byte(byte(slices.Index(liveWireIDs, c.ID())))
		c.Encode(&w, msg)
		f.Add(w.Buf)
	}
	// A batch response that claims no matches, then carries a thousand
	// hits of one: the arena must not be regrown once per hit. A hit is
	// index, match count, the match's four fields, remaining, error code.
	understated := []byte{byte(slices.Index(liveWireIDs, wireRespSubQueryBatch)), 0, 0xe8, 0x07}
	for i := 0; i < 1000; i++ {
		understated = append(understated, 0, 1, 0, 0, 0, 0, 0, 0)
	}
	f.Add(understated)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		id := liveWireIDs[int(data[0])%len(liveWireIDs)]
		c, ok := wire.LookupID(id)
		if !ok {
			t.Fatalf("no codec for wire ID %d", id)
		}
		decode := func(b []byte) (any, error) {
			r := wire.NewReader(b)
			v, err := c.Decode(r)
			if err == nil {
				err = r.Finish()
			}
			return v, err
		}
		payload := data[1:]

		// Decoding is deterministic, so a reading over the limit is taken
		// twice more and the least of the three counts: it is decoding's
		// own, whatever else the process allocated meanwhile.
		var v any
		var err error
		const slack = 1024 // the Reader, the boxed value
		limit, allocated := uint64(slack+48*len(payload)), ^uint64(0)
		for try := 0; try < 3 && allocated > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err = decode(payload)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if allocated > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d B, want <= %d", c.Name(), len(payload), allocated, limit)
		}
		if err != nil {
			return // clean rejection
		}

		var w wire.Writer
		c.Encode(&w, v)
		got, want := w.Buf, payload
		if id == wireRespSubQueryBatch {
			// The frame-level match total is corrected, not checked.
			got, want = afterUvarint(got), afterUvarint(want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %x decodes to %+v, which re-encodes to %x", c.Name(), payload, v, w.Buf)
		}
	})
}

// afterUvarint returns b past its leading uvarint.
func afterUvarint(b []byte) []byte {
	_, n := binary.Uvarint(b)
	return b[n:]
}
