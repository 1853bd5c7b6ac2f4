package store

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// TestRecordBytesPinned pins the framed bytes of one record per op, so
// a data directory written by an earlier build still recovers: any
// change here is a change of the disk format. Each frame is the u32
// payload length and u32 CRC, then the op byte and its fields — an
// entry as vertex (uvarint 300 = ac02), instance, set key and object
// ID, a string as its uvarint length and bytes, a migration as its
// flag byte (1 cursor, 2 done), the range bounds, the source and the
// cursor's entry when flagged.
func TestRecordBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
		hex  string
	}{
		{"insert", Record{Op: OpInsert, Instance: "main", Vertex: 300, SetKey: "alpha beta", ObjectID: "obj-1"},
			"19000000172f963e01ac02046d61696e0a616c7068612062657461056f626a2d31"},
		{"delete", Record{Op: OpDelete, Instance: "main", Vertex: 300, SetKey: "alpha beta", ObjectID: "obj-1"},
			"1900000044997b0b02ac02046d61696e0a616c7068612062657461056f626a2d31"},
		{"handoff", Record{Op: OpHandoff, NewID: 1 << 63, OwnerID: 42},
			"0c00000000b64d4103808080808080808080012a"},
		{"clear", Record{Op: OpClear},
			"01000000942b6fd504"},
		{"migrate-cursor", Record{Op: OpMigrate, NewID: 7, OwnerID: 9, Source: "peer:1",
			HasCursor: true, Instance: "main", Vertex: 300, SetKey: "beta", ObjectID: "obj-2"},
			"1d00000038d16e8d0501070906706565723a31ac02046d61696e0462657461056f626a2d32"},
		{"migrate-done", Record{Op: OpMigrate, NewID: 7, OwnerID: 9, Source: "peer:1", Done: true},
			"0b000000fb1ed1730502070906706565723a31"},
	} {
		if got := hex.EncodeToString(appendRecord(nil, tc.rec)); got != tc.hex {
			t.Errorf("%s encodes to %s, want %s", tc.name, got, tc.hex)
		}
		data, _ := hex.DecodeString(tc.hex)
		got, n, err := decodeRecord(data)
		if err != nil || n != len(data) || !reflect.DeepEqual(got, tc.rec) {
			t.Errorf("%s: pinned bytes decode to (%+v, %d, %v), want (%+v, %d, nil)", tc.name, got, n, err, tc.rec, len(data))
		}
	}
}

// TestAppendAllocatesNothing: a warm Append of an insert encodes into
// the store's own buffer and allocates nothing. The buffer is first
// grown to the size at which it is handed to the OS, so no append
// during the measured runs can regrow it.
func TestAppendAllocatesNothing(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{Fsync: FsyncOff, SnapshotEvery: -1})
	r := rec(OpInsert, 12345, "alpha beta", "object-000000")
	for i := 0; i < 2*maxBufferedBytes/40; i++ {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm Append allocates %.1f times, want 0", allocs)
	}
}

// TestReadAllocatesOncePerRecord: decoding an insert record costs one
// allocation, the copy of its payload that its three strings share.
func TestReadAllocatesOncePerRecord(t *testing.T) {
	const n = 100
	var data []byte
	for i := 0; i < n; i++ {
		data = appendRecord(data, rec(OpInsert, uint64(i), "alpha beta", fmt.Sprintf("obj-%03d", i)))
	}
	nop := func(Record) error { return nil }
	allocs := testing.AllocsPerRun(20, func() {
		if got, _, err := readAll(data, nop); err != nil || got != n {
			t.Fatalf("readAll = %d records, %v", got, err)
		}
	})
	if allocs != n {
		t.Errorf("reading %d insert records allocates %.0f times, want %d", n, allocs, n)
	}
}
