package core

import (
	"context"
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

func newSpanTestServer(t *testing.T, reg *telemetry.Registry) *Server {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	srv, err := NewServer(ServerConfig{
		Hasher:    keyword.MustNewHasher(6, 42),
		Resolver:  FuncResolver(func(hypercube.Vertex) transport.Addr { return "ix-0" }),
		Sender:    net,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestSpanStopSurvivesTruncation is the regression test for the
// truncated-span bug: recordSearchSpan compared the step index against
// len(steps)-1 while iterating the truncated prefix, so any trace
// longer than telemetry.MaxSpanSteps lost its halting T_STOP marker.
// The truncation must retain the final (halting) step and mark it.
func TestSpanStopSurvivesTruncation(t *testing.T) {
	reg := telemetry.New(8)
	srv := newSpanTestServer(t, reg)

	const extra = 37
	steps := make([]TraceStep, telemetry.MaxSpanSteps+extra)
	for i := range steps {
		steps[i] = TraceStep{Vertex: uint64(i), Matches: 1}
	}
	q := rootQuery{op: "superset-search", msg: msgTQuery{Instance: DefaultInstance, QueryKey: "a"}, order: TopDown}
	srv.recordSearchSpan(&q, respTQuery{Exhausted: false}, time.Now(), 1, steps)

	spans, _ := reg.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if len(sp.Steps) != telemetry.MaxSpanSteps {
		t.Fatalf("kept %d steps, want %d", len(sp.Steps), telemetry.MaxSpanSteps)
	}
	if sp.DroppedSteps != extra {
		t.Fatalf("DroppedSteps = %d, want %d", sp.DroppedSteps, extra)
	}
	if sp.Steps[0].Kind != telemetry.StepQuery {
		t.Errorf("first step kind %q, want %q", sp.Steps[0].Kind, telemetry.StepQuery)
	}
	last := sp.Steps[len(sp.Steps)-1]
	if last.Kind != telemetry.StepStop {
		t.Errorf("last kept step kind %q, want %q (T_STOP lost by truncation)", last.Kind, telemetry.StepStop)
	}
	if want := steps[len(steps)-1].Vertex; last.Vertex != want {
		t.Errorf("last kept step is vertex %d, want the halting vertex %d", last.Vertex, want)
	}
}

// TestSpanStopUntruncatedStillMarked guards the common case around the
// same code path: short traces keep every step and the final one is
// the stop marker.
func TestSpanStopUntruncatedStillMarked(t *testing.T) {
	reg := telemetry.New(8)
	srv := newSpanTestServer(t, reg)

	steps := []TraceStep{{Vertex: 1}, {Vertex: 2}, {Vertex: 3}}
	q := rootQuery{op: "superset-search", msg: msgTQuery{Instance: DefaultInstance, QueryKey: "b"}, order: TopDown}
	srv.recordSearchSpan(&q, respTQuery{Exhausted: false}, time.Now(), 1, steps)

	spans, _ := reg.Spans()
	sp := spans[0]
	if len(sp.Steps) != 3 || sp.DroppedSteps != 0 {
		t.Fatalf("kept %d steps dropped %d, want 3/0", len(sp.Steps), sp.DroppedSteps)
	}
	if sp.Steps[2].Kind != telemetry.StepStop {
		t.Errorf("final step kind %q, want %q", sp.Steps[2].Kind, telemetry.StepStop)
	}
}

// TestCacheGetReturnsPrivateCopy pins the contract the lock-narrowing
// fix relies on: the slice get hands out is the caller's to mutate,
// and the cached copy stays intact.
func TestCacheGetReturnsPrivateCopy(t *testing.T) {
	for _, policy := range []string{CachePolicyHot, CachePolicyFIFO} {
		t.Run(policy, func(t *testing.T) {
			c := newResultCache(policy, 100)
			set := keyword.NewSet("a", "b")
			c.put(DefaultInstance, supersetPred(set.Key(), set), []Match{{ObjectID: "o1"}, {ObjectID: "o2"}}, true)

			got, _, ok := c.get(DefaultInstance, supersetPred(set.Key(), set), All)
			if !ok || len(got) != 2 {
				t.Fatalf("get = (%v, %v), want 2 matches", got, ok)
			}
			got[0].ObjectID = "mutated"

			again, _, ok := c.get(DefaultInstance, supersetPred(set.Key(), set), All)
			if !ok || again[0].ObjectID != "o1" {
				t.Fatalf("cached copy corrupted by caller mutation: %+v", again)
			}
		})
	}
}

// TestCacheConcurrencyHammer races put/get/invalidateSubsetsOf across
// goroutines under both policies (the hot policy's touch and admission
// included); run under -race via make chaos. The narrowed critical
// section in get must not let a concurrent eviction or invalidation
// tear the copied slice.
func TestCacheConcurrencyHammer(t *testing.T) {
	for _, policy := range []string{CachePolicyHot, CachePolicyFIFO} {
		t.Run(policy, func(t *testing.T) {
			c := newResultCache(policy, 64)
			vocab := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
			const workers, iters = 8, 400

			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						a, b := vocab[(w+i)%len(vocab)], vocab[(w+2*i+1)%len(vocab)]
						set := keyword.NewSet(a, b)
						switch i % 3 {
						case 0:
							matches := []Match{{ObjectID: "o" + strconv.Itoa(i)}, {ObjectID: "p" + strconv.Itoa(w)}}
							c.put(DefaultInstance, supersetPred(set.Key(), set), matches, i%2 == 0)
						case 1:
							if got, _, ok := c.get(DefaultInstance, supersetPred(set.Key(), set), 1); ok {
								for _, m := range got {
									if m.ObjectID == "" {
										t.Error("torn match read from cache")
										return
									}
								}
								got[0].ObjectID = "scribble" // must never reach the cache
							}
						default:
							c.invalidateSubsetsOf(DefaultInstance, keyword.NewSet(a, b, vocab[i%len(vocab)]).Key())
						}
					}
				}(w)
			}
			wg.Wait()

			// The capacity invariant must survive the storm.
			if c.len() > 64 {
				t.Fatalf("cache holds %d entries over capacity", c.len())
			}
		})
	}
}

// TestSessionStoreTakeOrderIndependent checks the list-backed store:
// removal from the middle, double-take misses, and eviction order
// unaffected by interior removals.
func TestSessionStoreTakeOrderIndependent(t *testing.T) {
	st := newSessionStore(3)
	ids := make([]uint64, 4)
	for i := range ids {
		ids[i] = st.save(&session{pred: queryPred{key: strconv.Itoa(i)}})
	}
	// Capacity 3: saving 4 evicted the oldest (ids[0]).
	if st.take(ids[0]) != nil {
		t.Fatal("evicted session still retrievable")
	}
	// Take from the middle of the order list.
	if sess := st.take(ids[2]); sess == nil || sess.pred.key != "2" {
		t.Fatalf("middle take = %+v", sess)
	}
	if st.take(ids[2]) != nil {
		t.Fatal("double take returned a session")
	}
	// Oldest surviving is ids[1]; filling past capacity must evict it
	// even after the interior removal churned the list.
	st.save(&session{pred: queryPred{key: "4"}})
	st.save(&session{pred: queryPred{key: "5"}})
	if st.take(ids[1]) != nil {
		t.Fatal("eviction skipped the oldest surviving session")
	}
	if st.len() != 3 {
		t.Fatalf("len = %d, want 3", st.len())
	}
}

// TestSessionStoreConcurrencyHammer races save/take/len; run under
// -race via make chaos.
func TestSessionStoreConcurrencyHammer(t *testing.T) {
	st := newSessionStore(32)
	const workers, iters = 8, 500

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var mine []uint64
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					mine = append(mine, st.save(&session{pred: queryPred{key: strconv.Itoa(w)}}))
				case 1:
					if len(mine) > 0 {
						if sess := st.take(mine[0]); sess != nil && sess.pred.key != strconv.Itoa(w) {
							t.Error("take returned another goroutine's session")
							return
						}
						mine = mine[1:]
					}
				default:
					st.len()
				}
			}
		}(w)
	}
	wg.Wait()
	if st.len() > 32 {
		t.Fatalf("store holds %d sessions over capacity", st.len())
	}
}

// TestOneSetOneSpelling: a keyword set that arrives under a spelling
// Key never writes — a remote peer's msgInsertEntry, or a WAL record an
// earlier release logged from one — is stored under its canonical key.
// Pin, superset and prefix queries under either spelling find one set
// with the canonical SetKey, Stats counts one keyword set, a delete
// under either spelling finds the entry, and a WAL holding both
// spellings replays into the one canonical set.
func TestOneSetOneSpelling(t *testing.T) {
	canon, odd := keyword.NewSet("alpha", "beta").Key(), "beta\x1falpha"
	check := func(t *testing.T, srv *Server, want ...string) {
		t.Helper()
		if st := srv.Stats(); st.Entries != 1 || st.Objects != len(want) {
			t.Errorf("stats %d entries / %d objects, want 1 / %d", st.Entries, st.Objects, len(want))
		}
		for _, pred := range []queryPred{
			predFor(ClassPin, canon), predFor(ClassPin, odd),
			predFor(ClassSuperset, canon), predFor(ClassSuperset, odd),
			predFor(ClassSuperset, "alpha"), predFor(ClassPrefix, "al"),
		} {
			got, _, _ := srv.scanVertex(ownedArc{}, DefaultInstance, tableTestVertex, tableTestVertex, pred, 0, -1)
			if len(got) != len(want) {
				t.Errorf("class %v key %q: %d matches, want %d", pred.class, pred.key, len(got), len(want))
				continue
			}
			for i, m := range got {
				if m.SetKey != canon || m.ObjectID != want[i] {
					t.Errorf("class %v key %q: match %d = %q/%q, want %q/%q", pred.class, pred.key, i, m.SetKey, m.ObjectID, canon, want[i])
				}
			}
		}
	}

	t.Run("remote insert", func(t *testing.T) {
		srv := newTableTestServer(t, 0)
		for _, e := range [][2]string{{canon, "o1"}, {odd, "o2"}} {
			msg := msgInsertEntry{Instance: DefaultInstance, Vertex: uint64(tableTestVertex), SetKey: e[0], ObjectID: e[1]}
			if _, err := srv.handle(context.Background(), "peer", msg); err != nil {
				t.Fatal(err)
			}
		}
		check(t, srv, "o1", "o2")
		if found, err := srv.deleteEntry(DefaultInstance, tableTestVertex, odd, "o1"); err != nil || !found {
			t.Fatalf("delete of o1 under %q = (%v, %v), want found", odd, found, err)
		}
		check(t, srv, "o2")
	})

	t.Run("wal replay", func(t *testing.T) {
		dir := t.TempDir()
		st, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []store.Record{
			{Op: store.OpInsert, Instance: DefaultInstance, Vertex: uint64(tableTestVertex), SetKey: odd, ObjectID: "o2"},
			{Op: store.OpInsert, Instance: DefaultInstance, Vertex: uint64(tableTestVertex), SetKey: canon, ObjectID: "o1"},
			{Op: store.OpInsert, Instance: DefaultInstance, Vertex: uint64(tableTestVertex), SetKey: odd, ObjectID: "o3"},
			{Op: store.OpDelete, Instance: DefaultInstance, Vertex: uint64(tableTestVertex), SetKey: canon, ObjectID: "o3"},
		} {
			if _, err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{
			Hasher:   keyword.MustNewHasher(8, 42),
			Resolver: FuncResolver(func(hypercube.Vertex) transport.Addr { return "table-0" }),
			Sender:   benchSender{},
			DataDir:  dir,
			Fsync:    store.FsyncOff,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		check(t, srv, "o1", "o2")
	})
}
