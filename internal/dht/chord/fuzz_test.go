package chord

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// FuzzChordDecode fuzzes every Chord decoder, wire IDs 32–49: the first
// input byte picks the ID, the rest is the payload. Arbitrary bytes must
// give a clean error — trailing bytes count, as they do in a frame — or
// a value that re-encodes to exactly the input: the codecs reject the
// non-canonical forms, an overlong varint and a bool byte other than 0
// or 1 (the last seed holds both). Decoding never panics, and allocates no more than
// the Reader.Count bound allows: one arena copy of the payload plus the
// widest slice it can claim (a 48-byte Reference per 3 bytes), with
// room for size-class rounding. The reference lists of respReadRefs, respHandoff and
// rpcDepart feed a node's reference store directly. A short run is wired
// into `make fuzz-smoke`.
func FuzzChordDecode(f *testing.F) {
	RegisterTypes()
	ni := NodeInfo{ID: 0xdeadbeefcafef00d, Addr: "127.0.0.1:9001"}
	refs := []dht.Reference{
		{ObjectID: "obj", Holder: "10.0.0.1:80", Location: "/a/b"},
		{ObjectID: "obj", Holder: "10.0.0.2:80"},
	}
	for _, msg := range []any{
		rpcFindClosest{ID: 1 << 63}, respFindClosest{Done: true, Node: ni},
		rpcGetPredecessor{}, respGetPredecessor{Known: true, Node: ni},
		rpcNotify{Candidate: ni}, respOK{}, rpcGetSuccessorList{},
		respGetSuccessorList{Successors: []NodeInfo{ni, {ID: 2, Addr: "b"}}},
		rpcPing{}, rpcInsertRef{Ref: refs[0]}, respInsertRef{First: true},
		rpcDeleteRef{Ref: refs[1]}, respDeleteRef{Found: true, Remaining: 4},
		rpcReadRefs{ObjectID: "obj"}, respReadRefs{Found: true, Refs: refs},
		rpcHandoff{NewNode: ni}, respHandoff{Refs: refs},
		rpcDepart{Leaver: ni, Predecessor: NodeInfo{ID: 1, Addr: "p"}, Refs: refs},
	} {
		c, _ := wire.Lookup(msg)
		var w wire.Writer
		w.Byte(byte(c.ID() - wireRPCFindClosest))
		c.Encode(&w, msg)
		f.Add(w.Buf)
	}
	f.Add([]byte{wireRespHandoff - wireRPCFindClosest, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{wireRespDeleteRef - wireRPCFindClosest, 2, 0x80, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		id := wireRPCFindClosest + uint16(data[0])%(wireRPCDepart-wireRPCFindClosest+1)
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
