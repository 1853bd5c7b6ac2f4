package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// wholeRing are range bounds whose kept interval (newID, ownerID]
// covers (essentially) nothing, so every entry of the source migrates.
const (
	wholeRingNew   = 0
	wholeRingOwner = 1
)

// newMigrateServer builds one standalone server on net. dataDir == ""
// keeps it in-memory.
func newMigrateServer(t *testing.T, net *inmem.Network, dataDir string, mig MigrationConfig) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Hasher:    keyword.MustNewHasher(6, 42),
		Resolver:  FuncResolver(func(v hypercube.Vertex) transport.Addr { return "unused" }),
		Sender:    net,
		DataDir:   dataDir,
		Migration: mig,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// seedEntries fills s with a deterministic multi-instance, multi-vertex
// entry population and returns it in canonical order.
func seedEntries(t *testing.T, s *Server, n int) []store.Entry {
	t.Helper()
	var out []store.Entry
	for i := 0; i < n; i++ {
		e := store.Entry{
			Instance: "inst-" + strconv.Itoa(i%3),
			Vertex:   uint64(i % 7),
			SetKey:   keyword.NewSet("kw"+strconv.Itoa(i%5), "shared").Key(),
			ObjectID: fmt.Sprintf("obj-%03d", i),
		}
		if _, err := s.writeEntry(store.OpInsert, store.Entry{Instance: e.Instance, Vertex: uint64(e.Vertex), SetKey: e.SetKey, ObjectID: e.ObjectID}, false); err != nil {
			t.Fatalf("insert %v: %v", e, err)
		}
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

func sortEntries(es []store.Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		if a.Vertex != b.Vertex {
			return a.Vertex < b.Vertex
		}
		if a.SetKey != b.SetKey {
			return a.SetKey < b.SetKey
		}
		return a.ObjectID < b.ObjectID
	})
}

// allEntries enumerates every entry of s non-destructively through the
// chunk protocol itself (one uncapped whole-ring pull).
func allEntries(t *testing.T, s *Server) []store.Entry {
	t.Helper()
	resp, err := s.migrateChunk(context.Background(), msgMigrateChunk{
		NewID: wholeRingNew, OwnerID: wholeRingOwner,
		MaxEntries: 1 << 30, MaxBytes: 1 << 30,
	})
	if err != nil {
		t.Fatalf("migrateChunk: %v", err)
	}
	if !resp.Done {
		t.Fatalf("uncapped chunk not Done")
	}
	sortEntries(resp.Entries)
	return resp.Entries
}

// TestMigrateChunkPaging: cursor-paged pulls enumerate exactly the
// source's entries — no loss, no duplicates, Done on the final page —
// regardless of the per-chunk entry cap.
func TestMigrateChunkPaging(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	want := seedEntries(t, src, 50)

	for _, cap := range []int{1, 3, 7, 64} {
		var got []store.Entry
		cursor := wireCursor{}
		pulls := 0
		for {
			resp, err := src.migrateChunk(context.Background(), msgMigrateChunk{
				NewID: wholeRingNew, OwnerID: wholeRingOwner,
				Cursor: cursor, MaxEntries: cap, MaxBytes: 1 << 30,
			})
			if err != nil {
				t.Fatalf("cap=%d: migrateChunk: %v", cap, err)
			}
			if len(resp.Entries) > cap {
				t.Fatalf("cap=%d: chunk returned %d entries", cap, len(resp.Entries))
			}
			got = append(got, resp.Entries...)
			pulls++
			if resp.Done {
				break
			}
			if len(resp.Entries) == 0 {
				t.Fatalf("cap=%d: empty non-final chunk", cap)
			}
			cursor = wireCursor{Started: true, Entry: resp.Entries[len(resp.Entries)-1]}
		}
		sorted := append([]store.Entry(nil), got...)
		sortEntries(sorted)
		if !reflect.DeepEqual(sorted, want) {
			t.Fatalf("cap=%d: paged union mismatch: got %d entries, want %d", cap, len(sorted), len(want))
		}
		if cap < len(want) && pulls < 2 {
			t.Fatalf("cap=%d: expected multiple pulls, got %d", cap, pulls)
		}
	}
}

// TestMigrateChunkByteCap: MaxBytes closes a chunk early even when the
// entry cap has room.
func TestMigrateChunkByteCap(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	seedEntries(t, src, 20)

	resp, err := src.migrateChunk(context.Background(), msgMigrateChunk{
		NewID: wholeRingNew, OwnerID: wholeRingOwner,
		MaxEntries: 1 << 30, MaxBytes: 1,
	})
	if err != nil {
		t.Fatalf("migrateChunk: %v", err)
	}
	if len(resp.Entries) != 1 || resp.Done {
		t.Fatalf("1-byte cap chunk = %d entries, Done=%v; want 1 entry, not done", len(resp.Entries), resp.Done)
	}
}

// TestMigrateChunkRespectsRange: entries whose vertex key stays in
// (NewID, OwnerID] — still the source's after the join — never move.
func TestMigrateChunkRespectsRange(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	entries := seedEntries(t, src, 30)

	// Split the population at the median vertex key: keep ≈ half.
	keys := make([]uint64, 0, len(entries))
	for _, e := range entries {
		keys = append(keys, uint64(VertexKey(e.Instance, hypercube.Vertex(e.Vertex))))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	newID, ownerID := keys[len(keys)/2], keys[len(keys)-1]

	resp, err := src.migrateChunk(context.Background(), msgMigrateChunk{
		NewID: newID, OwnerID: ownerID, MaxEntries: 1 << 30, MaxBytes: 1 << 30,
	})
	if err != nil {
		t.Fatalf("migrateChunk: %v", err)
	}
	if len(resp.Entries) == 0 || len(resp.Entries) == len(entries) {
		t.Fatalf("split pull moved %d of %d entries; want a strict subset", len(resp.Entries), len(entries))
	}
	for _, e := range resp.Entries {
		k := uint64(VertexKey(e.Instance, hypercube.Vertex(e.Vertex)))
		if newID < k && k <= ownerID {
			t.Fatalf("entry %v (key %d) is inside the kept range (%d, %d]", e, k, newID, ownerID)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMigrateEndToEnd: the background manager pulls a whole range in
// small chunks, commits, and leaves source and destination with the
// static outcome — every entry moved exactly once.
func TestMigrateEndToEnd(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	dst := newMigrateServer(t, net, "", MigrationConfig{ChunkEntries: 5})
	want := seedEntries(t, src, 40)

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dst.WaitMigrationsIdle(ctx); err != nil {
		t.Fatalf("WaitMigrationsIdle: %v", err)
	}

	if got := allEntries(t, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("destination holds %d entries, want %d", len(got), len(want))
	}
	if left := allEntries(t, src); len(left) != 0 {
		t.Fatalf("source still holds %d entries after commit", len(left))
	}
	st := dst.MigrationStats()
	if st.Commits != 1 || st.Failures != 0 || st.Entries != uint64(len(want)) || st.Chunks < 2 {
		t.Fatalf("stats = %+v; want 1 commit, 0 failures, %d entries, ≥2 chunks", st, len(want))
	}
	if st.Active != 0 {
		t.Fatalf("stats report %d active migrations after idle", st.Active)
	}
	// Re-enqueueing the already-committed range converges to a no-op.
	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	if err := dst.WaitMigrationsIdle(ctx); err != nil {
		t.Fatalf("WaitMigrationsIdle (re-enqueue): %v", err)
	}
	if got := allEntries(t, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-enqueue changed the destination table")
	}
}

// TestMigrateDuplicateEnqueueNoOp: enqueues for an in-flight range
// dedupe instead of double-pulling (join triggers and
// stabilization-driven triggers overlap freely).
func TestMigrateDuplicateEnqueueNoOp(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	dst := newMigrateServer(t, net, "", MigrationConfig{ChunkEntries: 1, Throttle: time.Hour})
	seedEntries(t, src, 5)

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst.MigrationStats().Chunks >= 1 }, "first chunk")
	for i := 0; i < 10; i++ {
		dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	}
	if st := dst.MigrationStats(); st.Active != 1 {
		t.Fatalf("duplicate enqueues spawned %d active migrations, want 1", st.Active)
	}
}

// TestServerDepartWaitsForCommit: a departing server keeps its range,
// serving its successor's pull, until the commit of the pull that
// carries its own ring ID; Depart's wait then ends with the number of
// entries that commit dropped. A commit for another range does not end
// the wait, and a wait whose context ends drops nothing.
func TestServerDepartWaitsForCommit(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	dst := newMigrateServer(t, net, "", MigrationConfig{ChunkEntries: 3})
	want := seedEntries(t, src, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	wait := src.Depart(wholeRingNew)
	// A joiner's commit: another NewID, and a kept range of the whole
	// ring, so it drops nothing.
	if _, err := src.Handler(ctx, "", msgMigrateCommit{NewID: 7, OwnerID: 7}); err != nil {
		t.Fatal(err)
	}
	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	moved, err := wait(ctx)
	if err != nil || moved != len(want) {
		t.Fatalf("Depart wait = (%d, %v), want (%d, nil)", moved, err, len(want))
	}
	if got := allEntries(t, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("successor holds %d entries, want %d", len(got), len(want))
	}
	if left := allEntries(t, src); len(left) != 0 {
		t.Fatalf("departed server still holds %d entries", len(left))
	}

	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := dst.Depart(99)(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Depart wait on an ended context = %v, want context.Canceled", err)
	}
	if got := allEntries(t, dst); len(got) != len(want) {
		t.Fatalf("an unfinished departure dropped entries: %d left of %d", len(got), len(want))
	}
}

// TestTombstoneFlushFailureCounted: a tombstoned entry that a closing
// window cannot delete — its WAL append fails on a closed store — is
// counted in MigrationStats with its cause instead of vanishing.
func TestTombstoneFlushFailureCounted(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	dst := newMigrateServer(t, net, t.TempDir(), MigrationConfig{ChunkEntries: 1, Throttle: time.Hour})
	entries := seedEntries(t, src, 5)

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst.MigrationStats().Chunks >= 1 }, "first chunk")
	e := entries[len(entries)-1] // not pulled yet: the delete only tombstones it
	if _, err := dst.writeEntry(store.OpDelete, store.Entry{Instance: e.Instance, Vertex: uint64(e.Vertex), SetKey: e.SetKey, ObjectID: e.ObjectID}, false); err != nil {
		t.Fatal(err)
	}
	if err := dst.store.Close(); err != nil {
		t.Fatal(err)
	}
	dst.migrate.flushTombstones()
	st := dst.MigrationStats()
	if st.FlushFailures != 1 || !strings.Contains(st.LastFlushError, "closed store") || !strings.Contains(st.LastFlushError, e.ObjectID) {
		t.Fatalf("stats = %+v; want 1 flush failure naming %s and the closed store", st, e.ObjectID)
	}
}

// TestCheckpointFailureCounted: a durable puller whose store is closed
// cannot append its OpMigrate checkpoints. Each failure is counted in
// MigrationStats and telemetry with its cause, and the pull goes on:
// the range is empty, so the pull needs no insert, and it commits.
func TestCheckpointFailureCounted(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New(1)
	dst, err := NewServer(ServerConfig{
		Hasher:    keyword.MustNewHasher(6, 42),
		Resolver:  FuncResolver(func(v hypercube.Vertex) transport.Addr { return "unused" }),
		Sender:    net,
		DataDir:   t.TempDir(),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	if err := dst.store.Close(); err != nil {
		t.Fatal(err)
	}

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dst.WaitMigrationsIdle(ctx); err != nil {
		t.Fatalf("WaitMigrationsIdle: %v", err)
	}
	st := dst.MigrationStats()
	// Two checkpoints failed: the start marker and the done marker.
	if st.CheckpointFailures != 2 || st.Commits != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v; want 2 checkpoint failures, 1 commit, 0 failures", st)
	}
	if !strings.Contains(st.LastCheckpointError, "closed store") || !strings.Contains(st.LastCheckpointError, "src") {
		t.Fatalf("LastCheckpointError = %q; want the cause, naming the source and the closed store", st.LastCheckpointError)
	}
	if got := reg.Snapshot().Counters["migrate_checkpoint_failures_total"]; got != 2 {
		t.Fatalf("migrate_checkpoint_failures_total = %d, want 2", got)
	}
}

// TestRelayFailureCounted: a double-read whose old owner cannot be
// reached is counted in MigrationStats and telemetry with the source
// and the cause; the vertex is answered from the local half alone. The
// window is a recovered cursor nobody resumes, so it stays open on a
// source that was never bound.
func TestRelayFailureCounted(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	reg := telemetry.New(1)
	dst, err := NewServer(ServerConfig{
		Hasher:    keyword.MustNewHasher(6, 42),
		Resolver:  FuncResolver(func(v hypercube.Vertex) transport.Addr { return "unused" }),
		Sender:    net,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	const inst, v = "main", hypercube.Vertex(3)
	key := keyword.NewSet("a").Key()
	if _, err := dst.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: key, ObjectID: "local-0"}, false); err != nil {
		t.Fatal(err)
	}
	dst.migrate.applyRecoveredRecord(store.Record{Op: store.OpMigrate, NewID: wholeRingNew, OwnerID: wholeRingOwner, Source: "gone"})

	if got := pinVia(t, dst, inst, v, key); !equalStrings(got, []string{"local-0"}) {
		t.Fatalf("pin with the old owner gone = %v, want the local half [local-0]", got)
	}
	st := dst.MigrationStats()
	if st.DoubleReads != 1 || st.RelayFailures != 1 {
		t.Fatalf("stats = %+v; want 1 double-read, 1 relay failure", st)
	}
	if !strings.Contains(st.LastRelayError, "gone") || !strings.Contains(st.LastRelayError, "unreachable") {
		t.Fatalf("LastRelayError = %q; want the cause, naming the source", st.LastRelayError)
	}
	if got := reg.Snapshot().Counters["migrate_relay_failures_total"]; got != 1 {
		t.Fatalf("migrate_relay_failures_total = %d, want 1", got)
	}
}

// TestMigrateAbortOnDeadSource: a source that never answers exhausts
// the bounded retries, the migration aborts (failure counted), and the
// window closes — it must not wedge open forever.
func TestMigrateAbortOnDeadSource(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	dst := newMigrateServer(t, net, "", MigrationConfig{
		MaxAttempts: 2, RetryBackoff: time.Millisecond, ChunkTimeout: 50 * time.Millisecond,
	})
	dst.EnqueueMigration("no-such-peer", wholeRingNew, wholeRingOwner)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dst.WaitMigrationsIdle(ctx); err != nil {
		t.Fatalf("WaitMigrationsIdle: %v", err)
	}
	st := dst.MigrationStats()
	if st.Failures != 1 || st.Commits != 0 {
		t.Fatalf("stats = %+v; want 1 failure, 0 commits", st)
	}
	if !strings.Contains(st.LastAbort, "no-such-peer") {
		t.Fatalf("LastAbort = %q; want the cause, naming the dead source", st.LastAbort)
	}
	if dst.migrate.windowOpen() {
		t.Fatalf("window still open after abort")
	}
}

// TestMigrateDoubleReadMergesOldOwner: while the window is open, pin
// and sub-query answers from the new owner are byte-identical to a
// server holding the union of both tables — including skip/limit
// windows, which must be applied after the merge.
func TestMigrateDoubleReadMergesOldOwner(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	// Freeze the window after the first 1-entry chunk.
	dst := newMigrateServer(t, net, "", MigrationConfig{ChunkEntries: 1, Throttle: time.Hour})
	union := newMigrateServer(t, net, "", MigrationConfig{})

	const inst = "inst-0"
	setA := keyword.NewSet("alpha", "shared")
	setB := keyword.NewSet("beta", "shared")
	v := hypercube.Vertex(3)
	// Source: most of the population. Destination: one locally-born
	// entry the relay can't know about (the healing case).
	for i := 0; i < 6; i++ {
		set := setA
		if i%2 == 1 {
			set = setB
		}
		id := fmt.Sprintf("src-%d", i)
		if _, err := src.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: id}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := union.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: id}, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setA.Key(), ObjectID: "local-0"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := union.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setA.Key(), ObjectID: "local-0"}, false); err != nil {
		t.Fatal(err)
	}

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst.MigrationStats().Chunks >= 1 }, "first chunk")

	ctx := context.Background()
	pinGot := pinVia(t, dst, inst, v, setA.Key())
	pinWant := pinVia(t, union, inst, v, setA.Key())
	if len(pinWant) != 4 || !reflect.DeepEqual(pinGot, pinWant) {
		t.Fatalf("pin during window = %v, union baseline = %v", pinGot, pinWant)
	}
	if local := pinLocal(dst, inst, v, setA.Key()); len(local) >= len(pinGot) {
		t.Fatalf("window already closed: local table alone answers %v", local)
	}

	query := keyword.NewSet("shared")
	for _, win := range []struct{ skip, limit int }{{0, -1}, {0, 3}, {2, 2}, {5, -1}, {50, 1}} {
		got, gotRem := readVertex(ctx, dst, inst, v, supersetPred(query.Key(), query), win.skip, win.limit)
		want, wantRem, _ := union.scanVertex(ownedArc{}, inst, v, v, supersetPred(query.Key(), query), win.skip, win.limit)
		if !reflect.DeepEqual(got, want) || gotRem != wantRem {
			t.Fatalf("scan window %+v during migration:\n got %v (rem %d)\nwant %v (rem %d)",
				win, got, gotRem, want, wantRem)
		}
	}
	if st := dst.MigrationStats(); st.DoubleReads == 0 {
		t.Fatalf("no double-reads counted despite open window")
	}
}

// readVertex is one unit's migration-aware scan at v as the query root,
// as a frame's scanner reads it.
func readVertex(ctx context.Context, srv *Server, instance string, v hypercube.Vertex, pred queryPred, skip, limit int) ([]Match, int) {
	sc := srv.scanner(instance)
	defer sc.release()
	matches, remaining, _ := sc.read(ctx, nil, ownedArc{}, v, v, &pred, skip, limit)
	return matches, remaining
}

// TestMigrateDeleteDuringWindowNotResurrected: a delete that lands on
// the new owner before the entry's chunk arrives must win — the later
// chunk may not resurrect the entry, and double-reads must hide the
// old owner's still-present copy immediately.
func TestMigrateDeleteDuringWindowNotResurrected(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	dst := newMigrateServer(t, net, "", MigrationConfig{ChunkEntries: 1, Throttle: time.Hour})

	const inst = "inst-0"
	set := keyword.NewSet("gamma", "shared")
	v := hypercube.Vertex(2)
	for i := 0; i < 4; i++ {
		if _, err := src.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: fmt.Sprintf("obj-%d", i)}, false); err != nil {
			t.Fatal(err)
		}
	}

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst.MigrationStats().Chunks >= 1 }, "first chunk")

	// obj-3 sorts last: with ChunkEntries=1 its chunk has not arrived.
	victim := store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: "obj-3"}
	if _, err := dst.writeEntry(store.OpDelete, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: "obj-3"}, false); err != nil {
		t.Fatal(err)
	}

	// Double-read: the old owner still holds obj-3, the tombstone must
	// filter it from the merged answer.
	pin := pinVia(t, dst, inst, v, set.Key())
	if len(pin) != 3 {
		t.Fatalf("double-read answered %v, want the old owner's three live entries", pin)
	}
	for _, id := range pin {
		if id == "obj-3" {
			t.Fatalf("deleted entry resurfaced in double-read: %v", pin)
		}
	}
	// Chunk application: the pulled copy must be dropped, not applied.
	if _, err := dst.writeEntry(store.OpInsert, victim, true); err != nil {
		t.Fatal(err)
	}
	local := pinLocal(dst, inst, v, set.Key())
	for _, id := range local {
		if id == "obj-3" {
			t.Fatalf("tombstoned chunk entry applied to the table: %v", local)
		}
	}
	// A client re-insert during the window clears the tombstone.
	if _, err := dst.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: "obj-3"}, false); err != nil {
		t.Fatal(err)
	}
	if dst.migrate.hasTombstone(victim) {
		t.Fatalf("tombstone survived a re-insert")
	}
}

// TestMigrateResumeFromDurableCursor: killing a durable destination
// mid-transfer and reopening its data directory resumes from the
// logged cursor — every entry lands exactly once, and the resume is
// counted.
func TestMigrateResumeFromDurableCursor(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	want := seedEntries(t, src, 12)
	dir := t.TempDir()

	// Phase 1: pull a few 1-entry chunks, then "crash" (Close cancels
	// the worker mid-throttle; the cursor stays un-done in the WAL).
	dst1 := newMigrateServer(t, net, dir, MigrationConfig{ChunkEntries: 1, Throttle: 5 * time.Millisecond})
	dst1.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst1.MigrationStats().Chunks >= 3 }, "three chunks")
	if err := dst1.Close(); err != nil {
		t.Fatalf("close mid-migration: %v", err)
	}
	if left := allEntries(t, src); len(left) == 0 {
		t.Fatalf("source dropped its range before commit")
	}

	// Phase 2: reopen. Recovery must surface the durable cursor, and
	// ResumeMigrations must finish the pull without duplicating the
	// entries already applied.
	dst2 := newMigrateServer(t, net, dir, MigrationConfig{ChunkEntries: 1})
	st := dst2.MigrationStats()
	if st.Recovered != 1 {
		t.Fatalf("recovered %d cursors, want 1", st.Recovered)
	}
	applied := allEntries(t, dst2)
	if len(applied) == 0 || len(applied) >= len(want) {
		t.Fatalf("recovered table has %d entries, want a strict non-empty prefix of %d", len(applied), len(want))
	}
	if n := dst2.ResumeMigrations(); n != 1 {
		t.Fatalf("ResumeMigrations resumed %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dst2.WaitMigrationsIdle(ctx); err != nil {
		t.Fatalf("WaitMigrationsIdle: %v", err)
	}
	if got := allEntries(t, dst2); !reflect.DeepEqual(got, want) {
		t.Fatalf("after resume: %d entries, want %d (lost or duplicated)", len(got), len(want))
	}
	if left := allEntries(t, src); len(left) != 0 {
		t.Fatalf("source still holds %d entries after resumed commit", len(left))
	}
	st = dst2.MigrationStats()
	if st.Resumes != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v; want 1 resume, 1 commit", st)
	}

	// Phase 3: a third open sees a retired (done) migration — nothing
	// recovered, nothing re-pulled.
	if err := dst2.Close(); err != nil {
		t.Fatal(err)
	}
	dst3 := newMigrateServer(t, net, dir, MigrationConfig{})
	if st := dst3.MigrationStats(); st.Recovered != 0 {
		t.Fatalf("retired migration recovered again: %+v", st)
	}
	if got := allEntries(t, dst3); !reflect.DeepEqual(got, want) {
		t.Fatalf("third recovery lost entries: %d, want %d", len(got), len(want))
	}
}

// TestMigrateCursorSurvivesSnapshot: WAL compaction must re-emit open
// migration checkpoints into the snapshot — otherwise truncating the
// log silently forgets the resume point.
func TestMigrateCursorSurvivesSnapshot(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	want := seedEntries(t, src, 10)
	dir := t.TempDir()

	dst1, err := NewServer(ServerConfig{
		Hasher:        keyword.MustNewHasher(6, 42),
		Resolver:      FuncResolver(func(v hypercube.Vertex) transport.Addr { return "unused" }),
		Sender:        net,
		DataDir:       dir,
		SnapshotEvery: 2, // compact aggressively mid-transfer
		Migration:     MigrationConfig{ChunkEntries: 1, Throttle: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	dst1.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst1.MigrationStats().Chunks >= 4 }, "four chunks")
	if err := dst1.Close(); err != nil {
		t.Fatal(err)
	}

	dst2 := newMigrateServer(t, net, dir, MigrationConfig{})
	if st := dst2.MigrationStats(); st.Recovered != 1 {
		t.Fatalf("post-compaction recovery found %d cursors, want 1", st.Recovered)
	}
	dst2.ResumeMigrations()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dst2.WaitMigrationsIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if got := allEntries(t, dst2); !reflect.DeepEqual(got, want) {
		t.Fatalf("after snapshot+resume: %d entries, want %d", len(got), len(want))
	}
}

// TestGateInfoMigrationTrafficUngated: migration chunks, commits, and
// the relayed halves of double-reads are interior traffic — admission
// control must never gate them (regression: handoff traffic was gated
// like client traffic).
func TestGateInfoMigrationTrafficUngated(t *testing.T) {
	cases := []struct {
		body  any
		gated bool
	}{
		{msgMigrateChunk{}, false},
		{msgMigrateCommit{}, false},
		{msgSubQueryBatch{Relay: true, Class: ClassPin}, false}, // the relayed half of a pin
		{msgSubQueryBatch{Relay: true}, false},
		{msgSubQueryBatch{}, false}, // wave traffic, always interior
		{msgTQuery{Class: ClassPin}, true},
		{msgInsertEntry{}, true},
		{msgDeleteEntry{}, true},
		{msgTQuery{}, true},
	}
	for _, c := range cases {
		if _, _, gated := gateInfo(c.body); gated != c.gated {
			t.Errorf("gateInfo(%T) gated = %v, want %v", c.body, gated, c.gated)
		}
	}
}

// TestMigrationAdmittedUnderOverload: with the admission controller
// saturated (MaxInflight=1 held, no queue), client traffic sheds but
// migration chunks and relayed double-reads still flow — churn healing
// must not starve behind an overloaded node.
func TestMigrationAdmittedUnderOverload(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	srv, err := NewServer(ServerConfig{
		Hasher:    keyword.MustNewHasher(6, 42),
		Resolver:  FuncResolver(func(v hypercube.Vertex) transport.Addr { return "unused" }),
		Sender:    net,
		Admission: &admission.Policy{MaxInflight: 1, MaxQueue: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: "main", Vertex: 1, SetKey: keyword.NewSet("a").Key(), ObjectID: "o1"}, false); err != nil {
		t.Fatal(err)
	}

	// Saturate the controller.
	release, err := srv.adm.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx := context.Background()
	setKey := keyword.NewSet("a").Key()
	if _, err := srv.Handler(ctx, "", msgTQuery{Instance: "main", Vertex: 1, QueryKey: setKey, Class: ClassPin, Threshold: All}); err == nil {
		t.Fatalf("gated pin admitted while controller saturated")
	}
	raw, err := srv.Handler(ctx, "", msgSubQueryBatch{Instance: "main", Root: 1, QueryKey: setKey,
		Class: ClassPin, Limit: -1, Units: []wireUnit{{Vertex: 1}}, Relay: true})
	if err != nil {
		t.Fatalf("relayed pin gated under overload: %v", err)
	}
	if resp := raw.(respSubQueryBatch); len(resp.Hits) != 1 || !equalStrings(pinIDs(resp.Hits[0].Matches), []string{"o1"}) {
		t.Fatalf("relayed pin answered %+v, want [o1]", resp.Hits)
	}
	if _, err := srv.Handler(ctx, "", msgMigrateChunk{NewID: wholeRingNew, OwnerID: wholeRingOwner, MaxEntries: 10, MaxBytes: 1 << 20}); err != nil {
		t.Fatalf("migrate chunk gated under overload: %v", err)
	}
	if _, err := srv.Handler(ctx, "", msgMigrateCommit{NewID: wholeRingNew, OwnerID: wholeRingOwner}); err != nil {
		t.Fatalf("migrate commit gated under overload: %v", err)
	}
}

// TestMigrateChunkDeadlinePropagated: an expired DeadlineUnixNano on
// the wire aborts the chunk scan instead of serving a doomed request
// (regression: handoff frames carried no deadline at all).
func TestMigrateChunkDeadlinePropagated(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	srv := newMigrateServer(t, net, "", MigrationConfig{})
	seedEntries(t, srv, 5)

	past := time.Now().Add(-time.Second).UnixNano()
	if _, err := srv.Handler(context.Background(), "", msgMigrateChunk{
		NewID: wholeRingNew, OwnerID: wholeRingOwner, MaxEntries: 10, MaxBytes: 1 << 20,
		DeadlineUnixNano: past,
	}); err == nil {
		t.Fatalf("expired chunk deadline not honored")
	}
	if _, err := srv.Handler(context.Background(), "", msgMigrateCommit{
		NewID: wholeRingNew, OwnerID: wholeRingOwner, DeadlineUnixNano: past,
	}); err == nil {
		t.Fatalf("expired commit deadline not honored")
	}
	// A live deadline serves normally.
	future := time.Now().Add(time.Minute).UnixNano()
	if _, err := srv.Handler(context.Background(), "", msgMigrateChunk{
		NewID: wholeRingNew, OwnerID: wholeRingOwner, MaxEntries: 10, MaxBytes: 1 << 20,
		DeadlineUnixNano: future,
	}); err != nil {
		t.Fatalf("live chunk deadline rejected: %v", err)
	}
}

// TestFrameDeadline pins the one rule every frame's wire deadline goes
// through: zero is no deadline, a deadline no earlier than the inherited
// one leaves the inherited context as it is (no context.WithDeadline),
// an earlier one applies, and an expired one is already done.
func TestFrameDeadline(t *testing.T) {
	now := time.Now()
	parent, cancelParent := context.WithDeadline(context.Background(), now.Add(time.Minute))
	defer cancelParent()

	for _, tc := range []struct {
		name     string
		ctx      context.Context
		unixNano int64
		want     time.Time // zero: ctx comes back untouched
		expired  bool
	}{
		{name: "zero, no inherited deadline", ctx: context.Background()},
		{name: "zero", ctx: parent},
		{name: "later than inherited", ctx: parent, unixNano: now.Add(time.Hour).UnixNano()},
		{name: "equal to inherited", ctx: parent, unixNano: now.Add(time.Minute).UnixNano()},
		{name: "earlier than inherited", ctx: parent, unixNano: now.Add(time.Second).UnixNano(), want: now.Add(time.Second)},
		{name: "no inherited deadline", ctx: context.Background(), unixNano: now.Add(time.Second).UnixNano(), want: now.Add(time.Second)},
		{name: "expired", ctx: parent, unixNano: now.Add(-time.Second).UnixNano(), want: now.Add(-time.Second), expired: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := frameDeadline(tc.ctx, tc.unixNano)
			defer cancel()
			if tc.want.IsZero() {
				if ctx != tc.ctx {
					t.Fatalf("derived a new context; want the inherited one untouched")
				}
				return
			}
			if ctx == tc.ctx {
				t.Fatalf("returned the inherited context; want the frame's deadline applied")
			}
			if dl, ok := ctx.Deadline(); !ok || !dl.Equal(time.Unix(0, tc.want.UnixNano())) {
				t.Errorf("deadline %v (set %v), want %v", dl, ok, tc.want)
			}
			if got := ctx.Err() != nil; got != tc.expired {
				t.Errorf("ctx.Err() = %v, want expired %v", ctx.Err(), tc.expired)
			}
		})
	}
}
