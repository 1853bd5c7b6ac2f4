package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	gen "github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// The table tests drive one vertex of a real (standalone) Server and
// compare it with tableModel, the layout the flat table replaced
// conceptually: a plain map of set key → object IDs, sorted on demand.

const tableTestVertex = hypercube.Vertex(5)

// tableTestVocab is small, so random sets are often supersets of random
// queries, and has shared stems, so prefixes select several keywords.
var tableTestVocab = []string{"alpha", "alps", "bet", "beta", "del", "delta", "eps", "gamma"}

var tableTestPrefixes = []string{"a", "al", "alp", "alpha", "b", "bet", "beta", "d", "de", "g", "z"}

type tableModel map[string]map[string]struct{}

func (m tableModel) insert(setKey, id string) {
	if m[setKey] == nil {
		m[setKey] = map[string]struct{}{}
	}
	m[setKey][id] = struct{}{}
}

func (m tableModel) remove(setKey, id string) bool {
	if _, ok := m[setKey][id]; !ok {
		return false
	}
	delete(m[setKey], id)
	if len(m[setKey]) == 0 {
		delete(m, setKey)
	}
	return true
}

// flatten lists the model's ⟨setKey, id⟩ pairs matching pred in
// canonical order.
func (m tableModel) flatten(pred queryPred) [][2]string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][2]string
	for _, k := range keys {
		if pred.class == ClassPin && k != pred.key {
			continue
		}
		if !modelMatches(pred, keyword.ParseKey(k)) {
			continue
		}
		ids := make([]string, 0, len(m[k]))
		for id := range m[k] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			out = append(out, [2]string{k, id})
		}
	}
	return out
}

// modelMatches is the class predicate over a parsed keyword set: the
// reading the table's in-place key predicates must agree with.
func modelMatches(pred queryPred, set keyword.Set) bool {
	switch pred.class {
	case ClassPin:
		return keyword.ParseKey(pred.key).Equal(set)
	case ClassPrefix:
		return set.HasPrefix(pred.key)
	default:
		return keyword.ParseKey(pred.key).SubsetOf(set)
	}
}

func (m tableModel) objects() int {
	n := 0
	for _, ids := range m {
		n += len(ids)
	}
	return n
}

// newTableTestServer builds a server under GOMAXPROCS = procs (0 = the
// machine's), which sets its lock stripes.
func newTableTestServer(tb testing.TB, procs int) *Server {
	tb.Helper()
	var srv *Server
	var err error
	withProcs(procs, func() {
		srv, err = NewServer(ServerConfig{
			Hasher:   keyword.MustNewHasher(8, 42),
			Resolver: FuncResolver(func(hypercube.Vertex) transport.Addr { return "table-0" }),
			Sender:   benchSender{},
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// setFromMask picks vocabulary words by the bits of mask (never empty).
func setFromMask(mask byte) keyword.Set {
	if mask == 0 {
		mask = 1
	}
	var words []string
	for i, w := range tableTestVocab {
		if mask&(1<<uint(i)) != 0 {
			words = append(words, w)
		}
	}
	return keyword.NewSet(words...)
}

// checkScans compares the server's vertex with the model for one
// predicate over a grid of skip/limit windows: same matches in the same
// order, same remaining, the vertex's depth on every match.
func checkScans(srv *Server, m tableModel, pred queryPred) error {
	root := tableTestVertex &^ 4 // a sub-vertex: depth 1
	all := m.flatten(pred)
	for _, skip := range []int{0, 1, 2, 5, len(all), len(all) + 1} {
		for _, limit := range []int{-1, 0, 1, 2, 7} {
			want := all
			if skip < len(want) {
				want = want[skip:]
			} else {
				want = nil
			}
			wantRem := 0
			if limit >= 0 && len(want) > limit {
				wantRem = len(want) - limit
				want = want[:limit]
			}
			got, rem, _ := srv.scanVertex(ownedArc{}, DefaultInstance, tableTestVertex, root, pred, skip, limit)
			if rem != wantRem || len(got) != len(want) {
				return fmt.Errorf("class %v key %q skip %d limit %d: %d matches, %d remaining; model has %d and %d",
					pred.class, pred.key, skip, limit, len(got), rem, len(want), wantRem)
			}
			for i, mt := range got {
				if mt.SetKey != want[i][0] || mt.ObjectID != want[i][1] || mt.Vertex != uint64(tableTestVertex) || mt.Depth != 1 {
					return fmt.Errorf("class %v key %q skip %d limit %d: match %d = %+v, model has %q/%q at depth 1",
						pred.class, pred.key, skip, limit, i, mt, want[i][0], want[i][1])
				}
			}
		}
	}
	return nil
}

// checkShape compares the counts Stats reports with the model's —
// emptied rows must be gone, and the emptied table with them.
func checkShape(srv *Server, m tableModel) error {
	st := srv.Stats()
	wantVertices := 0
	if len(m) > 0 {
		wantVertices = 1
	}
	if st.Vertices != wantVertices || st.Entries != len(m) || st.Objects != m.objects() {
		return fmt.Errorf("stats %d vertices / %d entries / %d objects; model has %d / %d / %d",
			st.Vertices, st.Entries, st.Objects, wantVertices, len(m), m.objects())
	}
	return nil
}

// runTableOps decodes ops three bytes at a time — kind, keyword-set
// mask, argument — into inserts (half of them, so duplicates are
// common), removes (present or absent alike) and scans of every class,
// applies them to the server and the model, and returns the first
// disagreement.
func runTableOps(srv *Server, m tableModel, ops []byte) error {
	for ; len(ops) >= 3; ops = ops[3:] {
		kind, set, arg := ops[0]%4, setFromMask(ops[1]), ops[2]
		id := "o" + strconv.Itoa(int(arg%6))
		switch kind {
		case 0, 1:
			if err := srv.insertEntry(DefaultInstance, tableTestVertex, set.Key(), id); err != nil {
				return err
			}
			m.insert(set.Key(), id)
		case 2:
			found, err := srv.deleteEntry(DefaultInstance, tableTestVertex, set.Key(), id)
			if err != nil {
				return err
			}
			if want := m.remove(set.Key(), id); found != want {
				return fmt.Errorf("delete %q/%s: found = %v, model says %v", set.Key(), id, found, want)
			}
		case 3:
			var pred queryPred
			switch arg % 3 {
			case 0:
				pred = supersetPred(set.Key(), set)
			case 1:
				pred = predFor(ClassPin, set.Key())
			default:
				pred = predFor(ClassPrefix, tableTestPrefixes[int(ops[1])%len(tableTestPrefixes)])
			}
			if err := checkScans(srv, m, pred); err != nil {
				return err
			}
		}
		if err := checkShape(srv, m); err != nil {
			return err
		}
	}
	// Whatever the ops looked at, the end state must agree everywhere:
	// every keyword alone, every stored set pinned, every prefix.
	for i := range tableTestVocab {
		set := setFromMask(1 << uint(i))
		if err := checkScans(srv, m, supersetPred(set.Key(), set)); err != nil {
			return err
		}
	}
	for k := range m {
		if err := checkScans(srv, m, predFor(ClassPin, k)); err != nil {
			return err
		}
	}
	for _, p := range tableTestPrefixes {
		if err := checkScans(srv, m, predFor(ClassPrefix, p)); err != nil {
			return err
		}
	}
	return nil
}

// TestPropertyTableMatchesModel: random interleavings of insert,
// duplicate insert, remove, remove-absent and scan over one vertex
// agree with the map model for every class and window.
func TestPropertyTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(ops)
		srv := newTableTestServer(t, 0)
		if err := runTableOps(srv, tableModel{}, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzTableOps is the same check with the fuzzer choosing the ops.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 3, 1, 3, 1, 0, 2, 3, 0, 3, 3, 1, 2, 3, 1, 3, 2, 2})
	f.Add([]byte{1, 255, 5, 1, 1, 5, 3, 1, 0, 2, 255, 5, 3, 255, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		srv := newTableTestServer(t, 0)
		if err := runTableOps(srv, tableModel{}, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTableModelCheckCatchesLostSignature is the mutation check of the
// property test: zero one row's signature — what a wrong signature
// update on insert or remove would amount to — and the model comparison
// must fail, because the row drops out of superset answers. It also
// pins that the row still answers pin and prefix queries, which never
// read the column.
func TestTableModelCheckCatchesLostSignature(t *testing.T) {
	srv := newTableTestServer(t, 0)
	m := tableModel{}
	for mask := byte(1); mask < 40; mask += 3 {
		key := setFromMask(mask).Key()
		if err := srv.insertEntry(DefaultInstance, tableTestVertex, key, "o1"); err != nil {
			t.Fatal(err)
		}
		m.insert(key, "o1")
	}
	victim := setFromMask(7) // alpha, alps, bet
	alpha := keyword.NewSet("alpha")
	if err := checkScans(srv, m, supersetPred(alpha.Key(), alpha)); err != nil {
		t.Fatalf("before the mutation: %v", err)
	}

	sh := srv.shardFor(DefaultInstance, tableTestVertex)
	sh.mu.Lock()
	tbl := sh.tables[DefaultInstance][tableTestVertex]
	i, ok := tbl.find(victim.Key())
	if !ok {
		sh.mu.Unlock()
		t.Fatal("victim row missing")
	}
	tbl.sigs[i] = keyword.Sig{}
	sh.mu.Unlock()

	if err := checkScans(srv, m, supersetPred(alpha.Key(), alpha)); err == nil {
		t.Fatal("a zeroed signature went unnoticed by the model check")
	}
	if err := checkScans(srv, m, predFor(ClassPin, victim.Key())); err != nil {
		t.Errorf("pin reads the signature column: %v", err)
	}
	if err := checkScans(srv, m, predFor(ClassPrefix, "al")); err != nil {
		t.Errorf("prefix reads the signature column: %v", err)
	}
}

// TestTableScanWriteHammer: batch scans (the wave path, one frame per
// reader goroutine) race inserts and deletes on ONE vertex of a one-shard
// server, so every operation meets on one lock and one pair of slices
// mutated in place. Run under -race. Each writer owns a disjoint set of
// entries, so the final state is known exactly.
func TestTableScanWriteHammer(t *testing.T) {
	srv := newTableTestServer(t, 1)
	const writers, readers, rounds, perWriter = 4, 4, 150, 12
	hub := keyword.NewSet("hub")
	keyOf := func(w, i int) string {
		return keyword.NewSet("hub", "w"+strconv.Itoa(w), "e"+strconv.Itoa(i)).Key()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perWriter; i++ {
					if err := srv.insertEntry(DefaultInstance, tableTestVertex, keyOf(w, i), "o"+strconv.Itoa(r%3)); err != nil {
						t.Error(err)
						return
					}
				}
				// Odd entries are removed again; rows empty and reappear.
				for i := 1; i < perWriter; i += 2 {
					if _, err := srv.deleteEntry(DefaultInstance, tableTestVertex, keyOf(w, i), "o"+strconv.Itoa(r%3)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			msg := msgSubQueryBatch{
				Instance: DefaultInstance, Root: uint64(tableTestVertex), QueryKey: hub.Key(), Limit: -1,
				Units: []wireUnit{
					{Vertex: uint64(tableTestVertex)},
					{Vertex: uint64(tableTestVertex), Skip: 3},
					{Vertex: uint64(tableTestVertex), Skip: r},
					{Vertex: uint64(tableTestVertex) + 1},
				},
			}
			if r%2 == 1 {
				msg.Class, msg.QueryKey = ClassPrefix, "e1"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp := srv.subQueryBatch(context.Background(), msg)
				for _, u := range resp.Hits {
					for i := 1; i < len(u.Matches); i++ {
						a, b := u.Matches[i-1], u.Matches[i]
						if a.SetKey > b.SetKey || (a.SetKey == b.SetKey && a.ObjectID >= b.ObjectID) {
							t.Errorf("scan under writes out of order: %q/%q then %q/%q", a.SetKey, a.ObjectID, b.SetKey, b.ObjectID)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	m := tableModel{}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 2 {
			for o := 0; o < 3; o++ {
				m.insert(keyOf(w, i), "o"+strconv.Itoa(o))
			}
		}
	}
	if err := checkShape(srv, m); err != nil {
		t.Fatal(err)
	}
	if err := checkScans(srv, m, supersetPred(hub.Key(), hub)); err != nil {
		t.Fatal(err)
	}
}

// TestBulkReadersEmitCanonicalOrder: everything that reads whole tables
// out of a server — the snapshot dump, a migration chunk walk, the
// join-time range extraction and Drain — emits each vertex's entries in
// (set key, object ID) order, whatever order they were inserted in.
func TestBulkReadersEmitCanonicalOrder(t *testing.T) {
	build := func() (*Server, int) {
		srv := newTableTestServer(t, 4)
		rng := rand.New(rand.NewSource(7))
		n := 0
		for _, instance := range []string{DefaultInstance, "other"} {
			for v := hypercube.Vertex(1); v <= 9; v++ {
				for _, mask := range rng.Perm(40)[:12] {
					for _, o := range rng.Perm(5)[:3] {
						if err := srv.insertEntry(instance, v, setFromMask(byte(mask+1)).Key(), "o"+strconv.Itoa(o)); err != nil {
							t.Fatal(err)
						}
						n++
					}
				}
			}
		}
		return srv, n
	}
	// perVertexSorted fails unless each vertex's entries appear as one
	// strictly increasing (set key, object ID) run.
	perVertexSorted := func(what string, entries []store.Entry, want int) {
		t.Helper()
		if len(entries) != want {
			t.Errorf("%s emitted %d entries, want %d", what, len(entries), want)
		}
		type iv struct {
			instance string
			v        uint64
		}
		last := map[iv]store.Entry{}
		for _, e := range entries {
			k := iv{e.Instance, e.Vertex}
			if p, ok := last[k]; ok && (p.SetKey > e.SetKey || (p.SetKey == e.SetKey && p.ObjectID >= e.ObjectID)) {
				t.Fatalf("%s: vertex %s/%d emitted %q/%q after %q/%q", what, e.Instance, e.Vertex, e.SetKey, e.ObjectID, p.SetKey, p.ObjectID)
			}
			last[k] = e
		}
	}

	srv, n := build()
	var dumped []store.Entry
	err := srv.dumpAll(func(rec store.Record) error {
		dumped = append(dumped, store.Entry{Instance: rec.Instance, Vertex: rec.Vertex, SetKey: rec.SetKey, ObjectID: rec.ObjectID})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perVertexSorted("dumpAll", dumped, n)

	// A puller that owns only key 1 leaves every vertex to move; small
	// pages make the walk stop and resume inside rows.
	var pulled []store.Entry
	msg := msgMigrateChunk{NewID: 0, OwnerID: 1, MaxEntries: 7}
	for {
		resp, err := srv.migrateChunk(context.Background(), msg)
		if err != nil {
			t.Fatal(err)
		}
		pulled = append(pulled, resp.Entries...)
		if resp.Done {
			break
		}
		msg.Cursor = wireCursor{Started: true, Entry: resp.Entries[len(resp.Entries)-1]}
	}
	perVertexSorted("migrateChunk", pulled, n)
	for i := 1; i < len(pulled); i++ {
		p, e := pulled[i-1], pulled[i]
		if p.Compare(e) >= 0 {
			t.Fatalf("migrateChunk pages not in canonical order at %d: %+v then %+v", i, p, e)
		}
	}

	extracted, err := srv.extractRange(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	perVertexSorted("extractRange", extracted, n)
	if st := srv.Stats(); st.Objects != 0 {
		t.Errorf("extractRange left %d objects behind", st.Objects)
	}

}

// TestTableBytesPerObject pins what one stored ⟨set key, object ID⟩
// entry costs the heap: the live-heap delta after a GC when the
// deep_inmem corpus (20 000 objects, seed 1) goes into the 1 024 tables
// of an r = 10 cube, with the key and ID strings already held by the
// caller. The layout this replaced — a row with a parsed keyword set
// and its own ID slice — cost about 230 B.
func TestTableBytesPerObject(t *testing.T) {
	const budget = 64
	c, err := gen.Generate(gen.Config{Objects: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := keyword.MustNewHasher(10, 0)
	type entry struct {
		v       hypercube.Vertex
		key, id string
	}
	entries := make([]entry, 0, c.Len())
	for _, r := range c.Records() {
		entries = append(entries, entry{h.Vertex(r.Keywords), r.Keywords.Key(), r.ID})
	}
	tables := make([]table, 1<<h.Dim())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, e := range entries {
		tables[e.v].insert(e.key, e.id)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perObject := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(entries))
	runtime.KeepAlive(tables)
	runtime.KeepAlive(entries)
	t.Logf("%.1f B per stored entry", perObject)
	if perObject > budget {
		t.Errorf("%.1f B per stored entry, budget %d", perObject, budget)
	}
}

// TestSignatureSurvivorRate pins the signature column's filtering power
// as counts: over the deep_inmem corpus (20 000 objects, seed 1) in the
// 1 024 tables of an r = 10 cube, every template of a 200-template query
// log scans its whole subcube, and the test counts the entries scanned,
// those whose signature covers the query's (the survivors, which pay a
// key search) and the true supersets. No true superset may be rejected,
// and at most 1 % of the scanned entries may survive.
func TestSignatureSurvivorRate(t *testing.T) {
	c, err := gen.Generate(gen.Config{Objects: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log, err := gen.GenerateQueryLog(c, gen.QueryLogConfig{Templates: 200, Queries: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := keyword.MustNewHasher(10, 0)
	tables := make([]table, 1<<h.Dim())
	for _, r := range c.Records() {
		tables[h.Vertex(r.Keywords)].insert(r.Keywords.Key(), r.ID)
	}
	var scanned, survived, matched int
	for _, q := range log.Templates() {
		pred := supersetPred(q.Key(), q)
		root := h.Vertex(q)
		for v := range tables {
			if !hypercube.Vertex(v).Contains(root) {
				continue
			}
			tbl := &tables[v]
			for i, e := range tbl.ents {
				scanned++
				survives, matches := tbl.sigs[i].Covers(pred.want), pred.matches(e.key)
				if matches && !survives {
					t.Fatalf("query %v: the signature rejected the superset %q", q, e.key)
				}
				if survives {
					survived++
				}
				if matches {
					matched++
				}
			}
		}
	}
	rate := float64(survived) / float64(scanned)
	t.Logf("%d entries scanned, %d survived the signature (%.2f %%), %d true supersets", scanned, survived, 100*rate, matched)
	if matched == 0 {
		t.Fatal("no template matched an entry: the filter was never tested on a true superset")
	}
	if rate > 0.01 {
		t.Errorf("%.2f %% of scanned entries survived the signature, want ≤ 1 %%", 100*rate)
	}
}
