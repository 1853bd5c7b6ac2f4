package store

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// FuzzStoreRecord fuzzes the WAL/snapshot record decoder: arbitrary
// bytes are read as a log with readAll, the recovery path for both
// files. It checks four things.
//
//   - Reading never panics.
//   - The decoded prefix re-encodes through appendRecord to the same
//     bytes. The decoder accepts three non-canonical forms the encoder
//     never writes — an overlong varint, unknown OpMigrate flag bits and
//     payload bytes after a record's last field — and for those the
//     re-encoding is shorter or equally long and reads back to the same
//     records.
//   - A torn tail and a corrupt middle are told apart as isTornTail says:
//     a tail readAll keeps quiet about has no intact frame after it, and
//     appending one makes it a corrupt middle; a reported corruption has
//     an intact frame after it.
//   - Reading allocates at most 16 B per input byte, plus slack: decoded
//     strings, and one error value per CRC-valid frame that fails to
//     parse (at least 9 input bytes each).
//
// The checked-in corpus under testdata/fuzz holds a clean log of every
// op, a torn tail, a corrupt middle and each non-canonical form; a short
// run is wired into `make fuzz-smoke`.
func FuzzStoreRecord(f *testing.F) {
	var clean []byte
	for _, r := range []Record{
		rec(OpInsert, 5, "alpha", "obj-1"),
		rec(OpDelete, 5, "alpha", "obj-1"),
		{Op: OpHandoff, NewID: 1 << 63, OwnerID: 42},
		{Op: OpClear},
		{Op: OpMigrate, NewID: 7, OwnerID: 9, Source: "peer", HasCursor: true,
			Instance: "main", Vertex: 3, SetKey: "beta", ObjectID: "obj-2"},
		{Op: OpMigrate, NewID: 7, OwnerID: 9, Source: "peer", Done: true},
	} {
		clean = appendRecord(clean, r)
	}
	f.Add(clean)

	nop := func(Record) error { return nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		count, validLen, err := readAll(data, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if count != len(recs) || validLen > len(data) {
			t.Fatalf("readAll = (%d, %d, %v) over %d bytes, %d records applied", count, validLen, err, len(data), len(recs))
		}

		// Decoding is deterministic, so a reading over the limit is taken
		// twice more and the least of the three counts: it is decoding's
		// own, whatever else the process allocated meanwhile.
		const slack = 1024 // the error chain of a corrupt verdict
		limit, allocated := uint64(slack+16*len(data)), ^uint64(0)
		for try := 0; try < 3 && allocated > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			readAll(data, nop)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if allocated > limit {
			t.Fatalf("reading %d bytes allocated %d B, want <= %d", len(data), allocated, limit)
		}

		var re []byte
		for _, r := range recs {
			re = appendRecord(re, r)
		}
		if !bytes.Equal(re, data[:validLen]) {
			if len(re) > validLen {
				t.Fatalf("re-encoding is %d bytes, longer than the %d it was read from", len(re), validLen)
			}
			var again []Record
			_, n, err := readAll(re, func(r Record) error {
				again = append(again, r)
				return nil
			})
			if err != nil || n != len(re) || !reflect.DeepEqual(again, recs) {
				t.Fatalf("re-encoding does not read back: %d of %d bytes, %v; %+v, want %+v", n, len(re), err, again, recs)
			}
		}

		switch {
		case err == nil && validLen < len(data):
			if !isTornTail(data, validLen) {
				t.Fatalf("readAll kept quiet about %d bytes at offset %d that isTornTail calls corrupt", len(data)-validLen, validLen)
			}
			// An intact frame after the tail makes it a corrupt middle —
			// unless the frame's bytes completed the torn one.
			sealed := appendRecord(slices.Clip(data), Record{Op: OpClear})
			n, _, err := readAll(sealed, nop)
			if !errors.Is(err, errCorruptFrame) && n <= count {
				t.Fatalf("torn tail at offset %d followed by an intact frame: %d records, %v; want a corrupt middle", validLen, n, err)
			}
		case err != nil:
			if !errors.Is(err, errCorruptFrame) {
				t.Fatalf("readAll error %v does not wrap errCorruptFrame", err)
			}
			if isTornTail(data, validLen) {
				t.Fatalf("readAll reported corruption at offset %d that isTornTail calls a torn tail: %v", validLen, err)
			}
		}
	})
}
