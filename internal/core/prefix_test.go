package core

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// newPrefixDeployment is newDeploymentMode plus an explicit cache
// policy, for the prefix equivalence matrix.
func newPrefixDeployment(t *testing.T, r, nServers, cacheCap int, mode BatchMode, policy string) *deployment {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	hasher := keyword.MustNewHasher(r, 42)
	addrs := make([]transport.Addr, nServers)
	for i := range addrs {
		addrs[i] = transport.Addr("pfx-" + strconv.Itoa(i))
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
			CachePolicy:   policy,
			BatchWaves:    mode,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = srv
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

// prefixCorpus is a fixed corpus with clustered word prefixes: "kw1",
// "kw12", "kw120"… so prefixes of different lengths select nested
// object populations.
func prefixCorpus() []Object {
	return []Object{
		obj("a1", "kw1", "alpha"),
		obj("a2", "kw12", "alpha", "beta"),
		obj("a3", "kw120", "gamma"),
		obj("a4", "kw2", "alpha"),
		obj("a5", "kw21", "delta", "beta"),
		obj("b1", "other", "alpha"),
		obj("b2", "otter", "beta", "gamma", "delta"),
		obj("b3", "kw", "solo"),
		obj("c1", "zz", "kw129", "beta"),
		obj("c2", "zz", "kw3"),
	}
}

// prefixBruteForce returns the IDs of objects with at least one
// keyword starting with prefix.
func prefixBruteForce(objects []Object, prefix string) []string {
	var out []string
	for _, o := range objects {
		if o.Keywords.HasPrefix(prefix) {
			out = append(out, o.ID)
		}
	}
	sort.Strings(out)
	return out
}

func insertAll(t *testing.T, d *deployment, objects []Object) {
	t.Helper()
	ctx := context.Background()
	for _, o := range objects {
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatalf("Insert %s: %v", o.ID, err)
		}
	}
}

func TestPrefixSearchMatchesBruteForce(t *testing.T) {
	d := newDeployment(t, 8, 4, 0)
	objects := prefixCorpus()
	insertAll(t, d, objects)
	ctx := context.Background()

	for _, prefix := range []string{"kw", "kw1", "kw12", "kw120", "kw2", "ot", "zz", "nomatch"} {
		for _, order := range []TraversalOrder{TopDown, BottomUp, ParallelLevels} {
			res, err := d.client.PrefixSearch(ctx, prefix, All, SearchOptions{Order: order, NoCache: true})
			if err != nil {
				t.Fatalf("PrefixSearch(%q, %v): %v", prefix, order, err)
			}
			want := prefixBruteForce(objects, prefix)
			if got := matchIDs(res.Matches); !equalStrings(got, want) {
				t.Errorf("PrefixSearch(%q, %v) = %v, want %v", prefix, order, got, want)
			}
			if !res.Exhausted {
				t.Errorf("PrefixSearch(%q, %v): unbounded search not exhausted", prefix, order)
			}
			if res.Completeness != 1 || res.FailedSubtrees != 0 {
				t.Errorf("PrefixSearch(%q, %v): degraded on a healthy fleet: %+v", prefix, order, res)
			}
		}
	}
}

// TestPrefixSearchMaskedEquivalence: constraining the multicast to the
// dimensions the deployment vocabulary can hash to must not change the
// answer, and must not visit more nodes than the full broadcast.
func TestPrefixSearchMaskedEquivalence(t *testing.T) {
	d := newDeployment(t, 8, 4, 0)
	objects := prefixCorpus()
	insertAll(t, d, objects)
	ctx := context.Background()

	var vocab []string
	seen := map[string]bool{}
	for _, o := range objects {
		for _, w := range o.Keywords.Words() {
			if !seen[w] {
				seen[w] = true
				vocab = append(vocab, w)
			}
		}
	}
	for _, prefix := range []string{"kw", "kw1", "ot", "zz"} {
		mask := d.hasher.PrefixMask(vocab, prefix)
		if mask == 0 {
			t.Fatalf("PrefixMask(%q) = 0 despite matching vocabulary", prefix)
		}
		full, err := d.client.PrefixSearch(ctx, prefix, All, SearchOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		masked, err := d.client.PrefixSearchMasked(ctx, prefix, mask, All, SearchOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := matchIDs(masked.Matches), matchIDs(full.Matches); !equalStrings(got, want) {
			t.Errorf("masked prefix %q = %v, full broadcast %v", prefix, got, want)
		}
		if masked.Stats.NodesContacted > full.Stats.NodesContacted {
			t.Errorf("masked prefix %q contacted %d nodes, full broadcast only %d",
				prefix, masked.Stats.NodesContacted, full.Stats.NodesContacted)
		}
	}
}

func TestPrefixSearchThresholdStopsEarly(t *testing.T) {
	d := newDeployment(t, 8, 4, 0)
	objects := prefixCorpus()
	insertAll(t, d, objects)
	ctx := context.Background()

	res, err := d.client.PrefixSearch(ctx, "kw", 2, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || len(res.Matches) > 2 {
		t.Fatalf("threshold 2 returned %d matches", len(res.Matches))
	}
	if res.Exhausted {
		t.Error("threshold-bounded prefix search claims exhaustion with matches left")
	}
	if _, err := d.client.PrefixSearch(ctx, "kw", 0, SearchOptions{}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := d.client.PrefixSearch(ctx, "  ", All, SearchOptions{}); err == nil {
		t.Error("blank prefix accepted")
	}
}

// TestPrefixEquivalenceMatrix pins byte-identical prefix answers across
// {BatchWaves on/off} × {CachePolicy hot/fifo}: same matches, same
// order, same depths — wave batching and the cache policy are pure
// transport/serving optimizations. Each deployment also re-runs every
// query with the cache warm: the cached answer must byte-match the
// traversed one.
func TestPrefixEquivalenceMatrix(t *testing.T) {
	objects := prefixCorpus()
	prefixes := []string{"kw", "kw1", "kw12", "ot", "zz"}
	type combo struct {
		name   string
		mode   BatchMode
		policy string
	}
	combos := []combo{
		{"batch-hot", BatchOn, CachePolicyHot},
		{"batch-fifo", BatchOn, CachePolicyFIFO},
		{"nobatch-hot", BatchOff, CachePolicyHot},
		{"nobatch-fifo", BatchOff, CachePolicyFIFO},
	}
	ctx := context.Background()
	var baseline map[string][]Match
	for _, cb := range combos {
		d := newPrefixDeployment(t, 8, 4, 64, cb.mode, cb.policy)
		insertAll(t, d, objects)
		got := make(map[string][]Match, len(prefixes))
		for _, p := range prefixes {
			res, err := d.client.PrefixSearch(ctx, p, All, SearchOptions{Order: ParallelLevels})
			if err != nil {
				t.Fatalf("%s: PrefixSearch(%q): %v", cb.name, p, err)
			}
			got[p] = res.Matches
			warm, err := d.client.PrefixSearch(ctx, p, All, SearchOptions{Order: ParallelLevels})
			if err != nil {
				t.Fatalf("%s: warm PrefixSearch(%q): %v", cb.name, p, err)
			}
			if !warm.Stats.CacheHit {
				t.Errorf("%s: second PrefixSearch(%q) missed the cache", cb.name, p)
			}
			if !reflect.DeepEqual(warm.Matches, res.Matches) {
				t.Errorf("%s: cached PrefixSearch(%q) diverged:\n cold %v\n warm %v",
					cb.name, p, res.Matches, warm.Matches)
			}
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for _, p := range prefixes {
			if !reflect.DeepEqual(got[p], baseline[p]) {
				t.Errorf("%s: PrefixSearch(%q) diverged from %s baseline:\n got %v\nwant %v",
					cb.name, p, combos[0].name, got[p], baseline[p])
			}
		}
	}
}

// TestPrefixSupersetCacheNoCollision: a prefix query and a superset
// query over the same query string must never serve each other's
// cached answers — the cache key carries the query class.
func TestPrefixSupersetCacheNoCollision(t *testing.T) {
	for _, policy := range []string{CachePolicyHot, CachePolicyFIFO} {
		t.Run(policy, func(t *testing.T) {
			d := newPrefixDeployment(t, 8, 1, 64, BatchAuto, policy)
			objects := []Object{
				obj("exact", "kw"),
				obj("longer", "kwx"),
			}
			insertAll(t, d, objects)
			ctx := context.Background()

			sup, err := d.client.SupersetSearch(ctx, keyword.NewSet("kw"), All, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := matchIDs(sup.Matches); !equalStrings(got, []string{"exact"}) {
				t.Fatalf("superset(kw) = %v, want [exact]", got)
			}

			// The prefix query uses the same query string "kw" but must
			// not see the superset entry: its answer includes "longer".
			pre, err := d.client.PrefixSearch(ctx, "kw", All, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if pre.Stats.CacheHit {
				t.Error("first prefix query hit the superset query's cache entry")
			}
			if got := matchIDs(pre.Matches); !equalStrings(got, []string{"exact", "longer"}) {
				t.Fatalf("prefix(kw) = %v, want [exact longer]", got)
			}

			// And vice versa: the cached prefix entry must not answer a
			// later superset query.
			sup2, err := d.client.SupersetSearch(ctx, keyword.NewSet("kw"), All, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := matchIDs(sup2.Matches); !equalStrings(got, []string{"exact"}) {
				t.Fatalf("superset(kw) after prefix caching = %v, want [exact]", got)
			}

			// Same prefix under a different dimension mask is a different
			// multicast: it may not reuse the full-mask cache entry.
			masked, err := d.client.PrefixSearchMasked(ctx, "kw", 1, All, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if masked.Stats.CacheHit {
				t.Error("masked prefix query hit the full-mask cache entry")
			}
		})
	}
}

// TestPrefixSoftOnlyBounced: prefix queries are coordinator work, not
// soft-replica work — a SoftOnly prefix query must bounce with
// errCodeNoSoftCopy (the client then falls back to the owner), never
// run the multicast on a replica.
func TestPrefixSoftOnlyBounced(t *testing.T) {
	d := newDeployment(t, 6, 1, 0)
	ctx := context.Background()
	raw, err := d.net.Send(ctx, d.addrs[0], msgTQuery{
		Instance: DefaultInstance, Dim: 6, Vertex: 1, QueryKey: "kw",
		Class: ClassPrefix, Threshold: All, SoftOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := raw.(respTQuery)
	if !ok {
		t.Fatalf("unexpected response %T", raw)
	}
	if resp.ErrCode != errCodeNoSoftCopy {
		t.Fatalf("SoftOnly prefix query answered %d, want errCodeNoSoftCopy", resp.ErrCode)
	}
}

// TestPrefixInvalidation: a mutation that adds a new prefix match must
// invalidate the cached prefix entry, like superset entries.
func TestPrefixInvalidation(t *testing.T) {
	d := newPrefixDeployment(t, 8, 1, 64, BatchAuto, CachePolicyHot)
	insertAll(t, d, []Object{obj("one", "kwa")})
	ctx := context.Background()

	res, err := d.client.PrefixSearch(ctx, "kw", All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(res.Matches); !equalStrings(got, []string{"one"}) {
		t.Fatalf("prefix(kw) = %v", got)
	}
	if _, err := d.client.Insert(ctx, obj("two", "kwb")); err != nil {
		t.Fatal(err)
	}
	res, err = d.client.PrefixSearch(ctx, "kw", All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("prefix cache entry survived an insert matching the prefix")
	}
	if got := matchIDs(res.Matches); !equalStrings(got, []string{"one", "two"}) {
		t.Fatalf("prefix(kw) after insert = %v, want [one two]", got)
	}
}

// TestPrefixDoubleReadMergesOldOwner: a prefix-class scan during an
// open migration window must merge the old owner's view exactly like
// pin and superset scans — byte-identical to the union table.
func TestPrefixDoubleReadMergesOldOwner(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	src := newMigrateServer(t, net, "", MigrationConfig{})
	if _, err := net.Bind("src", src.Handler); err != nil {
		t.Fatal(err)
	}
	dst := newMigrateServer(t, net, "", MigrationConfig{ChunkEntries: 1, Throttle: time.Hour})
	union := newMigrateServer(t, net, "", MigrationConfig{})

	const inst = "inst-0"
	v := hypercube.Vertex(3)
	sets := []keyword.Set{
		keyword.NewSet("kwa", "shared"),
		keyword.NewSet("kwb", "shared"),
		keyword.NewSet("other", "shared"),
	}
	for i := 0; i < 6; i++ {
		set := sets[i%len(sets)]
		id := fmt.Sprintf("src-%d", i)
		if _, err := src.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: id}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := union.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: set.Key(), ObjectID: id}, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: sets[0].Key(), ObjectID: "local-0"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := union.writeEntry(store.OpInsert, store.Entry{Instance: inst, Vertex: uint64(v), SetKey: sets[0].Key(), ObjectID: "local-0"}, false); err != nil {
		t.Fatal(err)
	}

	dst.EnqueueMigration("src", wholeRingNew, wholeRingOwner)
	waitFor(t, 5*time.Second, func() bool { return dst.MigrationStats().Chunks >= 1 }, "first chunk")

	ctx := context.Background()
	pred := predFor(ClassPrefix, "kw")
	for _, win := range []struct{ skip, limit int }{{0, -1}, {0, 2}, {1, 2}} {
		got, gotRem := readVertex(ctx, dst, inst, v, pred, win.skip, win.limit)
		want, wantRem, _ := union.scanVertex(ownedArc{}, inst, v, v, pred, win.skip, win.limit)
		if !reflect.DeepEqual(got, want) || gotRem != wantRem {
			t.Fatalf("prefix scan window %+v during migration:\n got %v (rem %d)\nwant %v (rem %d)",
				win, got, gotRem, want, wantRem)
		}
	}
	if st := dst.MigrationStats(); st.DoubleReads == 0 {
		t.Fatal("no double-reads counted despite open window")
	}
}

// TestSearchClassCounter: the per-class telemetry counter moves for
// each query class exactly once per coordinator-side query.
func TestSearchClassCounter(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	reg := telemetry.New(16)
	hasher := keyword.MustNewHasher(6, 42)
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr { return "one" })
	srv, err := NewServer(ServerConfig{Hasher: hasher, Resolver: resolver, Sender: net, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Bind("one", srv.Handler); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(hasher, resolver, net)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{net: net, hasher: hasher, servers: []*Server{srv}, addrs: []transport.Addr{"one"}, client: client}
	ctx := context.Background()
	insertAll(t, d, []Object{obj("o", "kw", "x")})

	if _, err := d.client.SupersetSearch(ctx, keyword.NewSet("kw"), All, SearchOptions{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.client.PinSearch(ctx, keyword.NewSet("kw", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.PrefixSearch(ctx, "k", All, SearchOptions{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	classes := reg.CounterVec("core_search_class_total", "class")
	for _, class := range []string{"superset", "pin", "prefix"} {
		if got := classes.With(class).Value(); got == 0 {
			t.Errorf("core_search_class_total{%s} = 0 after a %s query", class, class)
		}
	}
}

// TestPrefixSpanDepth: a prefix multicast's span reports every step's
// depth in the tree of its own branch, rooted at e_{lowbit(v ∧ M)} —
// the depth its matches carry in Match.Depth — not its distance from
// the first branch's root e_0. At r = 6 with the full mask that is
// popcount(v) − 1 for all 63 candidate vertices.
func TestPrefixSpanDepth(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	reg := telemetry.New(16)
	hasher := keyword.MustNewHasher(6, 42)
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr { return "one" })
	srv, err := NewServer(ServerConfig{Hasher: hasher, Resolver: resolver, Sender: net, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Bind("one", srv.Handler); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(hasher, resolver, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.PrefixSearch(context.Background(), "k", All, SearchOptions{NoCache: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 63 {
		t.Fatalf("trace has %d steps, want all 63 candidate vertices", len(res.Trace))
	}
	spans, _ := reg.Spans()
	if len(spans) != 1 || spans[0].Op != "prefix-search" || len(spans[0].Steps) != 63 {
		t.Fatalf("want one prefix-search span of 63 steps, got %+v", spans)
	}
	var wrong []string
	for _, st := range spans[0].Steps {
		if want := bits.OnesCount64(st.Vertex) - 1; st.Depth != want {
			wrong = append(wrong, fmt.Sprintf("%06b: %d, want %d", st.Vertex, st.Depth, want))
		}
	}
	if len(wrong) > 0 {
		t.Errorf("%d of 63 steps report the wrong depth, e.g. %s", len(wrong), wrong[0])
	}
}
