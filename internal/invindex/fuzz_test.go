package invindex

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// FuzzInvindexDecode fuzzes every inverted-index decoder, wire IDs
// 64–69, under FuzzChordDecode's contract: the first input byte picks
// the ID, the rest is the payload. Arbitrary bytes must give a clean
// error — trailing bytes count, as they do in a frame — or a value that
// re-encodes to exactly the input: the codecs reject the two
// non-canonical forms, an overlong varint and a bool byte other than 0
// or 1. Decoding never panics, and allocates no more than the
// Reader.Count bound allows: one arena copy of the payload plus the
// widest slice it can claim (a 16-byte string header per byte of
// respFetchPostings), with room for size-class rounding. The checked-in
// corpus under testdata/fuzz holds the non-canonical and over-long
// count inputs, all of which must be rejected; a short run is wired
// into `make fuzz-smoke`.
func FuzzInvindexDecode(f *testing.F) {
	RegisterTypes()
	for _, msg := range []any{
		msgInsertPosting{Vertex: 42, Word: "alpha", ObjectID: "doc-1"},
		respAck{},
		msgDeletePosting{Vertex: 7, Word: "beta", ObjectID: "doc-2"},
		respDeletePosting{Found: true},
		msgFetchPostings{Vertex: 1 << 30, Word: "gamma"},
		respFetchPostings{ObjectIDs: []string{"a", "", "doc-3"}},
	} {
		c, _ := wire.Lookup(msg)
		var w wire.Writer
		w.Byte(byte(c.ID() - wireMsgInsertPosting))
		c.Encode(&w, msg)
		f.Add(w.Buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		id := wireMsgInsertPosting + uint16(data[0])%(wireRespFetchPostings-wireMsgInsertPosting+1)
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
		limit, allocated := uint64(slack+24*len(payload)), ^uint64(0)
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
		if !bytes.Equal(w.Buf, payload) {
			t.Fatalf("%s: %x decodes to %+v, which re-encodes to %x", c.Name(), payload, v, w.Buf)
		}
	})
}
