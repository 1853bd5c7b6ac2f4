package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// newDurableDeployment is newDeployment with a data directory per
// server: dirs[i] backs servers[i]. Reusing the same dirs across two
// constructions models a full-fleet restart.
func newDurableDeployment(t *testing.T, r, nServers, cacheCap int, dirs []string, fsync store.FsyncPolicy, snapEvery int, reg *telemetry.Registry) *deployment {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	hasher := keyword.MustNewHasher(r, 42)
	addrs := make([]transport.Addr, nServers)
	for i := range addrs {
		addrs[i] = transport.Addr("ix-" + strconv.Itoa(i))
	}
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr {
		return addrs[int(uint64(v)%uint64(nServers))]
	})
	servers := make([]*Server, nServers)
	for i := range servers {
		srv, err := NewServer(ServerConfig{
			Hasher:        hasher,
			Resolver:      resolver,
			Sender:        net,
			CacheCapacity: cacheCap,
			DataDir:       dirs[i],
			Fsync:         fsync,
			SnapshotEvery: snapEvery,
			Telemetry:     reg,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
		if _, err := net.Bind(addrs[i], srv.Handler); err != nil {
			t.Fatalf("Bind: %v", err)
		}
	}
	client, err := NewClient(hasher, resolver, net)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return &deployment{net: net, hasher: hasher, servers: servers, addrs: addrs, client: client}
}

func tempDirs(t *testing.T, n int) []string {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	return dirs
}

func (d *deployment) closeServers(t *testing.T) {
	t.Helper()
	for _, srv := range d.servers {
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	d.net.Close()
}

// TestDurableRestartEquivalence is the acceptance criterion at the
// core layer: a durable deployment, restarted from its data dirs, must
// answer pin and superset queries byte-identically to both its
// pre-restart self and a never-restarted non-durable twin — matches
// (and order), Exhausted, Completeness, accounting, and traces.
func TestDurableRestartEquivalence(t *testing.T) {
	const r, nServers = 8, 4
	dirs := tempDirs(t, nServers)
	durable := newDurableDeployment(t, r, nServers, 0, dirs, store.FsyncOff, 0, nil)
	plain := newDeploymentMode(t, r, nServers, 0, BatchAuto)

	objects := batchCorpus(31, 120)
	ctx := context.Background()
	for _, o := range objects {
		if _, err := durable.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a slice of the corpus so the WAL holds delete records too.
	for i := 0; i < len(objects); i += 7 {
		if _, _, err := durable.client.Delete(ctx, objects[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plain.client.Delete(ctx, objects[i]); err != nil {
			t.Fatal(err)
		}
	}

	queries := batchQueries(37)
	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}

	type snap struct {
		res Result
		err error
	}
	before := make(map[string]snap)
	for _, q := range queries {
		res, err := durable.client.SupersetSearch(ctx, q, All, opts)
		before[q.Key()] = snap{res, err}
		pRes, pErr := plain.client.SupersetSearch(ctx, q, All, opts)
		requireSameResult(t, "durable-vs-plain/"+q.Key(), pRes, res, pErr, err)
	}
	pinBefore := make(map[string][]string)
	for _, o := range objects {
		ids, _, err := durable.client.PinSearch(ctx, o.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		pinBefore[o.Keywords.Key()] = ids
	}

	// Restart: close every server and rebuild the fleet over the same
	// data dirs. NewServer replays snapshot + WAL into the tables.
	durable.closeServers(t)
	restarted := newDurableDeployment(t, r, nServers, 0, dirs, store.FsyncOff, 0, nil)

	for _, q := range queries {
		res, err := restarted.client.SupersetSearch(ctx, q, All, opts)
		b := before[q.Key()]
		requireSameResult(t, "restart/"+q.Key(), b.res, res, b.err, err)
	}
	for _, o := range objects {
		ids, _, err := restarted.client.PinSearch(ctx, o.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(ids, pinBefore[o.Keywords.Key()]) {
			t.Fatalf("pin %s: %v after restart, %v before", o.Keywords.Key(), ids, pinBefore[o.Keywords.Key()])
		}
	}
}

// TestDurableCrashResetRecover exercises the sim's in-process crash
// model: CrashReset wipes memory (queries see an empty index),
// RecoverFromStore replays the data dir and restores the exact state.
func TestDurableCrashResetRecover(t *testing.T) {
	const r = 6
	dirs := tempDirs(t, 1)
	reg := telemetry.New(8)
	d := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncInterval, 0, reg)
	ctx := context.Background()

	objects := batchCorpus(41, 60)
	for _, o := range objects {
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	srv := d.servers[0]
	want := srv.Stats()
	if want.Entries == 0 {
		t.Fatal("corpus produced no entries")
	}

	srv.CrashReset()
	if got := srv.Stats(); got != (TableStats{}) {
		t.Fatalf("post-crash stats %+v, want empty", got)
	}
	ids, _, err := d.client.PinSearch(ctx, objects[0].Keywords)
	if err != nil || len(ids) != 0 {
		t.Fatalf("post-crash pin = (%v, %v), want empty", ids, err)
	}

	replayed, err := srv.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if got := srv.Stats(); got != want {
		t.Fatalf("post-recovery stats %+v, want %+v", got, want)
	}
	if v := reg.Counter("store_recovery_replayed_total").Value(); v != uint64(replayed) {
		t.Fatalf("store_recovery_replayed_total = %d, want %d", v, replayed)
	}
	for _, o := range objects {
		ids, _, err := d.client.PinSearch(ctx, o.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range ids {
			if id == o.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("object %s missing after recovery", o.ID)
		}
	}
}

// TestDurableConcurrentReplayHammer is the regression for the
// WAL-order/apply-order inversion: concurrent mutations of the same
// entry (and concurrent range extractions) must land in the log in
// exactly the order their applies land, or recovery replays a
// different history than the one that was acknowledged — e.g. an
// insert that beat a delete in memory but lost the race to the log
// is silently dropped on replay. It hammers one contended entry set,
// then compares crash-recovered state against pre-crash memory.
// `make chaos` runs it under -race.
func TestDurableConcurrentReplayHammer(t *testing.T) {
	const r = 6
	dirs := tempDirs(t, 1)
	d := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncOff, 0, nil)
	srv := d.servers[0]

	const (
		inst    = "main"
		v       = hypercube.Vertex(3)
		setKey  = "k"
		writers = 4
		ops     = 400
	)
	key := VertexKey(inst, v)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				// Three object IDs shared by every goroutine, so
				// insert/delete pairs of the same entry race constantly.
				obj := "o" + strconv.Itoa(i%3)
				if (g+i)%2 == 0 {
					if _, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setKey, ObjectID: obj}, false); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := srv.writeEntry(store.OpDelete, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setKey, ObjectID: obj}, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent range extraction of exactly the contended vertex:
	// (key, key-1] keeps every id but key itself. An insert logged
	// before the handoff but applied after it would survive in memory
	// yet be extracted on replay — the unfaithful-handoff scenario.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := srv.extractRange(key, key-1); err != nil {
				t.Error(err)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Sharper probe: one insert and one delete of each of many fresh
	// objects race pairwise, all pairs at once on the same shard, so a
	// deep shard-lock queue forms and mutex barging shuffles acquisition
	// order. Memory keeps whichever op applied last; replay keeps
	// whichever appended last — a single inversion between the two
	// orders flips that object's final presence, which the recovery
	// comparison below detects.
	const pairs = 512
	start := make(chan struct{})
	var pair sync.WaitGroup
	for p := 0; p < pairs; p++ {
		obj := "race-" + strconv.Itoa(p)
		pair.Add(2)
		go func() {
			defer pair.Done()
			<-start
			if _, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setKey, ObjectID: obj}, false); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer pair.Done()
			<-start
			if _, err := srv.writeEntry(store.OpDelete, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setKey, ObjectID: obj}, false); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	pair.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := pinLocal(srv, inst, v, setKey)
	wantStats := srv.Stats()
	srv.CrashReset()
	if _, err := srv.RecoverFromStore(); err != nil {
		t.Fatal(err)
	}
	if got := pinLocal(srv, inst, v, setKey); !equalStrings(got, want) {
		t.Fatalf("recovered entry objects %v, pre-crash memory had %v", got, want)
	}
	if got := srv.Stats(); got != wantStats {
		t.Fatalf("recovered stats %+v, pre-crash memory had %+v", got, wantStats)
	}
}

// TestDurableAppendApplyCriticalSection pins the critical-section
// shape that makes WAL order equal apply order — deterministically,
// where the probabilistic hammer above depends on scheduler luck. An
// entry mutation must perform its append inside the entry's shard
// write lock, so while the test holds that lock no record can reach
// the log; a range mutation must perform its append under stateMu's
// write side, so while the test holds the read side it cannot log
// either. If either append escapes its critical section, a concurrent
// mutation of the same entry can invert log order vs apply order and
// recovery replays a different history than the one acknowledged.
func TestDurableAppendApplyCriticalSection(t *testing.T) {
	const (
		inst   = "main"
		v      = hypercube.Vertex(3)
		setKey = "k"
	)
	reg := telemetry.New(8)
	dirs := tempDirs(t, 1)
	d := newDurableDeployment(t, 6, 1, 0, dirs, store.FsyncOff, 0, reg)
	srv := d.servers[0]
	appends := reg.Counter("store_wal_appends_total")

	sh := srv.shardFor(inst, v)
	sh.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setKey, ObjectID: "o1"}, false)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if got := appends.Value(); got != 0 {
		sh.mu.Unlock()
		t.Fatalf("insert appended %d records outside the shard critical section", got)
	}
	sh.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := appends.Value(); got != 1 {
		t.Fatalf("insert logged %d records after unlock, want 1", got)
	}

	srv.stateMu.RLock()
	go func() {
		_, err := srv.extractRange(0, 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if got := appends.Value(); got != 1 {
		srv.stateMu.RUnlock()
		t.Fatalf("handoff appended outside the stateMu critical section (%d records)", got)
	}
	srv.stateMu.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := appends.Value(); got != 2 {
		t.Fatalf("handoff logged %d records after unlock, want 2", got)
	}

	// A pulled chunk entry takes the same critical section.
	sh.mu.Lock()
	go func() {
		_, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: setKey, ObjectID: "o2"}, true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if got := appends.Value(); got != 2 {
		sh.mu.Unlock()
		t.Fatalf("pulled insert appended outside the shard critical section (%d records)", got)
	}
	sh.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := appends.Value(); got != 3 {
		t.Fatalf("pulled insert logged %d records after unlock, want 3", got)
	}
}

// TestDurableDrainAndHandoffReplay covers the two range records a WAL
// can hold: OpHandoff (a committed pull's range extraction) must replay
// to the same surviving state, and OpClear — written only by the
// graceful drain of earlier releases, read-old here — must still replay
// to an empty index with later records applying on top.
func TestDurableDrainAndHandoffReplay(t *testing.T) {
	const r = 6
	dirs := tempDirs(t, 1)
	d := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncOff, 0, nil)
	ctx := context.Background()

	for _, o := range batchCorpus(43, 40) {
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	srv := d.servers[0]

	// Hand off part of the range: entries NOT in (newID, ownerID] leave.
	// The bounds split the hash space, so some (but typically not all)
	// entries depart; what matters is replay determinism, not the split.
	moved, err := srv.extractRange(0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	afterHandoff := srv.Stats()
	if len(moved) == 0 || afterHandoff.Entries == 0 {
		t.Skipf("degenerate handoff split (moved %d, left %d); corpus seed needs adjusting", len(moved), afterHandoff.Entries)
	}

	// Restart and compare the surviving state.
	d.closeServers(t)
	d2 := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncOff, 0, nil)
	if got := d2.servers[0].Stats(); got != afterHandoff {
		t.Fatalf("post-restart stats %+v, want %+v", got, afterHandoff)
	}

	// Append the OpClear an earlier release's drain logged, then an
	// insert after it: recovery must yield exactly the late entry.
	d2.closeServers(t)
	st, err := store.Open(store.Config{Dir: dirs[0], Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	late := keyword.NewSet("late", "bird")
	for _, rec := range []store.Record{
		{Op: store.OpClear},
		{Op: store.OpInsert, Instance: DefaultInstance, Vertex: uint64(d2.client.Hasher().Vertex(late)),
			SetKey: late.Key(), ObjectID: "post-drain"},
	} {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncOff, 0, nil)
	if got := d3.servers[0].Stats(); got.Entries != 1 || got.Objects != 1 {
		t.Fatalf("post-clear restart stats %+v, want exactly the late entry", got)
	}
	ids, _, err := d3.client.PinSearch(ctx, late)
	if err != nil || len(ids) != 1 || ids[0] != "post-drain" {
		t.Fatalf("post-clear pin = (%v, %v), want [post-drain]", ids, err)
	}
}

// TestDurableCompactionEquivalence drives enough mutations through a
// small SnapshotEvery to force several compactions, then checks the
// snapshot actually took over from the WAL and a restart still
// reproduces the exact state.
func TestDurableCompactionEquivalence(t *testing.T) {
	const r = 6
	dirs := tempDirs(t, 1)
	reg := telemetry.New(8)
	d := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncOff, 32, reg)
	ctx := context.Background()

	objects := batchCorpus(47, 150)
	for _, o := range objects {
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(objects); i += 5 {
		if _, _, err := d.client.Delete(ctx, objects[i]); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Counter("store_snapshots_total").Value(); v == 0 {
		t.Fatal("no compaction ran despite SnapshotEvery=32")
	}
	if _, err := os.Stat(filepath.Join(dirs[0], "snapshot.snap")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	want := d.servers[0].Stats()

	d.closeServers(t)
	d2 := newDurableDeployment(t, r, 1, 0, dirs, store.FsyncOff, 32, nil)
	if got := d2.servers[0].Stats(); got != want {
		t.Fatalf("post-compaction restart stats %+v, want %+v", got, want)
	}
}
