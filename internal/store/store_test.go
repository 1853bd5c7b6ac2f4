package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/leakcheck"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// tableModel is a reference in-memory application of record sequences:
// a set of entry tuples, keyed by their full coordinates.
type tableModel map[string]bool

func entryKey(r Record) string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%s", r.Instance, r.Vertex, r.SetKey, r.ObjectID)
}

func (m tableModel) apply(r Record) error {
	switch r.Op {
	case OpInsert:
		m[entryKey(r)] = true
	case OpDelete:
		delete(m, entryKey(r))
	case OpClear:
		for k := range m {
			delete(m, k)
		}
	}
	return nil
}

func (m tableModel) sorted() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func openTest(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func rec(op Op, v uint64, set, id string) Record {
	return Record{Op: op, Instance: "main", Vertex: v, SetKey: set, ObjectID: id}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		rec(OpInsert, 42, "a b", "obj-1"),
		rec(OpDelete, 1<<40, "x", "obj-2"),
		{Op: OpHandoff, NewID: 7, OwnerID: 1<<63 + 5},
		{Op: OpClear},
		rec(OpInsert, 0, "", ""),
		// Migration checkpoints: a fresh start (no cursor), a mid-range
		// checkpoint (cursor = last entry applied), and a retirement.
		{Op: OpMigrate, NewID: 9, OwnerID: 1 << 62, Source: "peer-7"},
		{Op: OpMigrate, NewID: 9, OwnerID: 1 << 62, Source: "10.0.0.1:4000",
			HasCursor: true, Instance: "main", Vertex: 77, SetKey: "a b c", ObjectID: "obj-9"},
		{Op: OpMigrate, NewID: 9, OwnerID: 1 << 62, Source: "peer-7", Done: true},
		{Op: OpMigrate, NewID: 0, OwnerID: 0, Source: "",
			HasCursor: true, Done: true},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	var got []Record
	n, validLen, err := readAll(buf, func(r Record) error { got = append(got, r); return nil })
	if err != nil || n != len(recs) || validLen != len(buf) {
		t.Fatalf("readAll = (%d, %d, %v), want (%d, %d, nil)", n, validLen, err, len(recs), len(buf))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

// TestMigrateRecordTruncated: an OpMigrate frame cut off mid-payload is
// recognized as a torn tail, not silently decoded as a shorter record.
func TestMigrateRecordTruncated(t *testing.T) {
	full := appendRecord(nil, Record{
		Op: OpMigrate, NewID: 12, OwnerID: 99, Source: "peer-3",
		HasCursor: true, Instance: "main", Vertex: 5, SetKey: "k", ObjectID: "o",
	})
	for cut := 1; cut < len(full); cut++ {
		n, validLen, err := readAll(full[:cut], func(Record) error { return nil })
		if err != nil || n != 0 || validLen != 0 {
			t.Fatalf("cut=%d: readAll = (%d, %d, %v), want torn tail (0, 0, nil)", cut, n, validLen, err)
		}
	}
}

func TestRecoverReplaysAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{Fsync: FsyncOff})
	want := tableModel{}
	for i := 0; i < 100; i++ {
		r := rec(OpInsert, uint64(i%8), "k", fmt.Sprintf("o%d", i))
		if i%3 == 0 {
			r.Op = OpDelete
		}
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		want.apply(r)
	}
	// Recover from the same open store (in-process recovery: the chaos
	// harness's crash→recover transition) must see all appends even
	// though nothing was fsynced.
	got := tableModel{}
	n, err := s.Recover(got.apply)
	if err != nil || n != 100 {
		t.Fatalf("Recover = (%d, %v), want (100, nil)", n, err)
	}
	if !reflect.DeepEqual(got.sorted(), want.sorted()) {
		t.Fatalf("in-process recovery mismatch")
	}
	// And again from a fresh store over the same dir (process restart).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{Fsync: FsyncAlways})
	got2 := tableModel{}
	if _, err := s2.Recover(got2.apply); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.sorted(), want.sorted()) {
		t.Fatalf("restart recovery mismatch")
	}
}

func TestSnapshotCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{Fsync: FsyncOff, SnapshotEvery: 10})
	model := tableModel{}
	due := false
	for i := 0; i < 10; i++ {
		r := rec(OpInsert, 3, "k", fmt.Sprintf("o%d", i))
		model.apply(r)
		var err error
		if due, err = s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if !due {
		t.Fatal("snapshot not due after SnapshotEvery appends")
	}
	if err := s.WriteSnapshot(func(emit func(Record) error) error {
		for k := range model {
			if err := emit(parseEntryKey(k)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated after snapshot: %v, size %d", err, fi.Size())
	}
	if s.SnapshotDue() {
		t.Fatal("snapshot still due right after compaction")
	}
	// Post-snapshot appends land in the WAL tail; recovery = snapshot +
	// tail.
	tail := rec(OpInsert, 4, "k2", "extra")
	model.apply(tail)
	if _, err := s.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{})
	got := tableModel{}
	if _, err := s2.Recover(got.apply); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.sorted(), model.sorted()) {
		t.Fatalf("post-compaction recovery mismatch:\n got %v\nwant %v", got.sorted(), model.sorted())
	}
}

// parseEntryKey inverts entryKey so tests can re-emit a model entry as
// an insert record.
func parseEntryKey(k string) Record {
	fields := strings.Split(k, "\x00")
	var v uint64
	fmt.Sscanf(fields[1], "%d", &v)
	return Record{Op: OpInsert, Instance: fields[0], Vertex: v, SetKey: fields[2], ObjectID: fields[3]}
}

// TestStaleWALOnTopOfSnapshotConverges exercises the compaction crash
// window: the snapshot rename landed but the WAL truncation did not.
// Recovery replays the full stale WAL on top of the snapshot and must
// converge to the same state by record idempotency.
func TestStaleWALOnTopOfSnapshotConverges(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{Fsync: FsyncOff})
	model := tableModel{}
	seq := []Record{
		rec(OpInsert, 1, "a", "o1"),
		rec(OpInsert, 2, "b", "o2"),
		rec(OpDelete, 1, "a", "o1"),
		rec(OpInsert, 1, "a", "o3"),
	}
	for _, r := range seq {
		model.apply(r)
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand WITHOUT truncating the WAL, simulating
	// the crash between rename and truncate.
	var snap []byte
	for k := range model {
		snap = appendRecord(snap, parseEntryKey(k))
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{})
	got := tableModel{}
	n, err := s2.Recover(got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(model)+len(seq) {
		t.Fatalf("replayed %d records, want snapshot %d + WAL %d", n, len(model), len(seq))
	}
	if !reflect.DeepEqual(got.sorted(), model.sorted()) {
		t.Fatalf("stale-WAL recovery diverged:\n got %v\nwant %v", got.sorted(), model.sorted())
	}
}

// TestRecoveryEquivalenceProperty is the satellite property test: any
// insert/delete sequence, crashed at any byte offset of the WAL,
// recovers to exactly the state reached by replaying the record prefix
// that survived the cut.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		s := openTest(t, dir, Config{Fsync: FsyncOff})
		const n = 120
		recs := make([]Record, n)
		ends := make([]int64, n) // byte offset of each record's frame end
		for i := range recs {
			op := OpInsert
			if rng.Intn(3) == 0 {
				op = OpDelete
			}
			recs[i] = rec(op, uint64(rng.Intn(16)),
				fmt.Sprintf("k%d", rng.Intn(5)), fmt.Sprintf("o%d", rng.Intn(40)))
			if _, err := s.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			ends[i] = fi.Size()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Crash: truncate the WAL at a random byte offset.
		cut := int64(rng.Intn(int(ends[n-1]) + 1))
		if err := os.Truncate(filepath.Join(dir, walName), cut); err != nil {
			t.Fatal(err)
		}
		// The surviving prefix is every record whose frame fully fits.
		want := tableModel{}
		survivors := 0
		for i, end := range ends {
			if end <= cut {
				want.apply(recs[i])
				survivors++
			}
		}

		s2 := openTest(t, dir, Config{})
		got := tableModel{}
		replayed, err := s2.Recover(got.apply)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != survivors {
			t.Fatalf("trial %d cut %d: replayed %d records, want %d", trial, cut, replayed, survivors)
		}
		if !reflect.DeepEqual(got.sorted(), want.sorted()) {
			t.Fatalf("trial %d cut %d: recovered state diverges from surviving prefix", trial, cut)
		}
		// The torn tail must also be gone for subsequent appends: the
		// reopened WAL ends exactly at the last whole frame.
		var lastWhole int64
		for i := range ends {
			if ends[i] <= cut {
				lastWhole = ends[i]
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != lastWhole {
			t.Fatalf("trial %d: torn tail not truncated: size %d, want %d", trial, fi.Size(), lastWhole)
		}
	}
}

// writeWAL populates a fresh store with n insert records and returns
// the WAL bytes for corruption experiments.
func writeWAL(t *testing.T, dir string, n int) []byte {
	t.Helper()
	s := openTest(t, dir, Config{Fsync: FsyncOff})
	for i := 0; i < n; i++ {
		if _, err := s.Append(rec(OpInsert, 1, "k", fmt.Sprintf("o%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCorruptMiddleFailsOpen: a CRC failure with valid frames after it
// cannot be a torn tail — the bytes were whole once and have rotted.
// That must surface as an error, not silently drop every record after
// the bad frame.
func TestCorruptMiddleFailsOpen(t *testing.T) {
	dir := t.TempDir()
	data := writeWAL(t, dir, 10)
	data[len(data)/2] ^= 0xff // flip one bit mid-log
	walPath := filepath.Join(dir, walName)
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a WAL with a corrupt middle frame")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open error %q does not identify the corruption", err)
	}
}

// TestCorruptFinalFrameIsTornTail: a CRC failure in the file's last
// frame is indistinguishable from a torn sector write (header landed,
// payload did not), so it is treated like a short tail: truncated,
// with everything before it recovered.
func TestCorruptFinalFrameIsTornTail(t *testing.T) {
	dir := t.TempDir()
	data := writeWAL(t, dir, 5)
	data[len(data)-1] ^= 0xff // corrupt the final frame's payload
	walPath := filepath.Join(dir, walName)
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Config{})
	got := tableModel{}
	n, err := s.Recover(got.apply)
	if err != nil || n != 4 {
		t.Fatalf("Recover = (%d, %v), want the 4 whole frames", n, err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() >= int64(len(data)) {
		t.Fatalf("corrupt tail frame not truncated: size %d of %d", fi.Size(), len(data))
	}
}

// TestCorruptSnapshotFailsRecovery: the snapshot is fsynced whole
// before its rename, so it admits no torn tail — any malformed frame,
// truncated or corrupt, must fail recovery rather than silently load
// a partial table.
func TestCorruptSnapshotFailsRecovery(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"corrupt":   func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var snap []byte
			for i := 0; i < 6; i++ {
				snap = appendRecord(snap, rec(OpInsert, 2, "k", fmt.Sprintf("o%d", i)))
			}
			if err := os.WriteFile(filepath.Join(dir, snapName), mangle(snap), 0o644); err != nil {
				t.Fatal(err)
			}
			s := openTest(t, dir, Config{})
			if _, err := s.Recover(tableModel{}.apply); err == nil {
				t.Fatal("Recover accepted a malformed snapshot")
			}
		})
	}
}

// TestRestartSeedsCompactionCounter: the appends-since-snapshot
// counter must survive restarts by seeding from the recovered WAL
// tail, or a node that restarts before filling SnapshotEvery fresh
// appends never compacts and the WAL grows without bound.
func TestRestartSeedsCompactionCounter(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{Fsync: FsyncOff, SnapshotEvery: 10})
	for i := 0; i < 6; i++ {
		if due, err := s.Append(rec(OpInsert, 1, "k", fmt.Sprintf("o%d", i))); err != nil || due {
			t.Fatalf("append %d: (%v, %v)", i, due, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{Fsync: FsyncOff, SnapshotEvery: 10})
	for i := 6; i < 9; i++ {
		if due, err := s2.Append(rec(OpInsert, 1, "k", fmt.Sprintf("o%d", i))); err != nil || due {
			t.Fatalf("append %d after restart: (%v, %v)", i, due, err)
		}
	}
	due, err := s2.Append(rec(OpInsert, 1, "k", "o9"))
	if err != nil {
		t.Fatal(err)
	}
	if !due {
		t.Fatal("10th lifetime append not due for compaction: recovered tail not counted")
	}
}

// TestOpenLocksDataDir: two stores over one directory would interleave
// appends into the same WAL; the second opener must fail fast instead.
func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	if second, err := Open(Config{Dir: dir}); err == nil {
		second.Close()
		t.Fatal("second Open of a locked data dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the owning descriptor: reopening after Close
	// (or a crash) needs no stale-lock cleanup.
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestFsyncPolicyParsingAndTelemetry(t *testing.T) {
	for spelling, want := range map[string]FsyncPolicy{
		"": FsyncInterval, "interval": FsyncInterval, "always": FsyncAlways, "off": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(spelling)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = (%v, %v), want %v", spelling, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted an unknown spelling")
	}

	reg := telemetry.New(8)
	s := openTest(t, t.TempDir(), Config{Fsync: FsyncAlways, Telemetry: reg, SnapshotEvery: 2})
	if _, err := s.Append(rec(OpInsert, 1, "k", "o1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec(OpInsert, 1, "k", "o2")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(func(emit func(Record) error) error {
		return emit(rec(OpInsert, 1, "k", "o1"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store_wal_appends_total").Value(); got != 2 {
		t.Errorf("store_wal_appends_total = %d, want 2", got)
	}
	if got := reg.Counter("store_wal_bytes_total").Value(); got == 0 {
		t.Error("store_wal_bytes_total = 0")
	}
	if got := reg.Counter("store_snapshots_total").Value(); got != 1 {
		t.Errorf("store_snapshots_total = %d, want 1", got)
	}
	got := tableModel{}
	if _, err := s.Recover(got.apply); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("store_recovery_replayed_total").Value() != 1 {
		t.Errorf("store_recovery_replayed_total = %d, want 1",
			reg.Counter("store_recovery_replayed_total").Value())
	}
}

// TestGroupCommitFailureCounted: a group-commit tick that cannot write
// the WAL is counted, with its cause, instead of dropped.
func TestGroupCommitFailureCounted(t *testing.T) {
	reg := telemetry.New(8)
	s := openTest(t, t.TempDir(), Config{Fsync: FsyncInterval, FsyncEvery: time.Millisecond, Telemetry: reg})
	s.mu.Lock()
	s.wal.Close() // the file goes away underneath the store
	s.mu.Unlock()
	if _, err := s.Append(rec(OpInsert, 1, "k", "o1")); err != nil {
		t.Fatalf("an interval append only buffers, got %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n, _ := s.SyncFailures(); n == 0; n, _ = s.SyncFailures() {
		if time.Now().After(deadline) {
			t.Fatal("no group-commit failure counted within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err == nil {
		t.Error("Close flushed a WAL whose file is closed")
	}
	n, last := s.SyncFailures()
	if !strings.Contains(last, "WAL write") {
		t.Errorf("last group-commit error = %q, want the WAL write failure", last)
	}
	if got := reg.Counter("store_group_commit_failures_total").Value(); got != n {
		t.Errorf("store_group_commit_failures_total = %d, want %d", got, n)
	}
}
