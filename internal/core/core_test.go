package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// deployment wires servers for every physical node of a test cluster
// over an in-memory network, with vertices spread round-robin.
type deployment struct {
	net     *inmem.Network
	hasher  keyword.Hasher
	servers []*Server
	addrs   []transport.Addr
	client  *Client
}

func newDeployment(t *testing.T, r, nServers, cacheCap int) *deployment {
	t.Helper()
	return newDeploymentMode(t, r, nServers, cacheCap, BatchAuto)
}

// newDeploymentMode is newDeployment with an explicit wave-batching
// mode, for tests comparing the batched and per-message dispatch paths.
func newDeploymentMode(t *testing.T, r, nServers, cacheCap int, mode BatchMode) *deployment {
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

// withProcs runs fn with GOMAXPROCS set to procs and restores it after
// (procs 0 leaves it alone). A server built inside takes its lock-stripe
// count and scan-worker limit from procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// newDeploymentTuned builds the servers with GOMAXPROCS = stripes, which
// fixes their lock-stripe count, then sets their scan-worker limit to
// workers: one GOMAXPROCS value alone gives equal counts, and the
// sharding × scan-parallelism matrix also needs the unequal cells.
func newDeploymentTuned(t *testing.T, r, nServers, cacheCap int, mode BatchMode, stripes, workers int) *deployment {
	t.Helper()
	var d *deployment
	withProcs(stripes, func() { d = newDeploymentMode(t, r, nServers, cacheCap, mode) })
	for _, srv := range d.servers {
		srv.scanWorkers = workers
	}
	return d
}

// serverFor returns the server hosting vertex v.
func (d *deployment) serverFor(v hypercube.Vertex) *Server {
	return d.servers[int(uint64(v)%uint64(len(d.servers)))]
}

func obj(id string, words ...string) Object {
	return Object{ID: id, Keywords: keyword.NewSet(words...)}
}

// bruteForce returns the IDs of objects describable by query.
func bruteForce(objects []Object, query keyword.Set) []string {
	var out []string
	for _, o := range objects {
		if query.SubsetOf(o.Keywords) {
			out = append(out, o.ID)
		}
	}
	sort.Strings(out)
	return out
}

func matchIDs(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ObjectID
	}
	sort.Strings(out)
	return out
}

// pinIDs lists matches' object IDs in answer order (nil when empty,
// like Client.PinSearch).
func pinIDs(ms []Match) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.ObjectID)
	}
	return out
}

// pinLocal is the exact-set lookup against srv's own tables only —
// what a relayed ClassPin sub-query answers, with no migration
// double-read.
func pinLocal(srv *Server, instance string, v hypercube.Vertex, setKey string) []string {
	ms, _, _ := srv.scanVertex(ownedArc{}, instance, v, v, predFor(ClassPin, setKey), 0, -1)
	return pinIDs(ms)
}

// pinVia sends srv the ClassPin msgTQuery a client would and returns
// the answer's object IDs; inside an open migration window this is the
// double-read path.
func pinVia(t *testing.T, srv *Server, instance string, v hypercube.Vertex, setKey string) []string {
	t.Helper()
	raw, err := srv.Handler(context.Background(), "", msgTQuery{Instance: instance, Vertex: uint64(v),
		QueryKey: setKey, Class: ClassPin, Threshold: All})
	if err != nil {
		t.Fatalf("pin query: %v", err)
	}
	return pinIDs(raw.(respTQuery).Matches)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertPinDeleteLifecycle(t *testing.T) {
	d := newDeployment(t, 10, 4, 0)
	ctx := context.Background()

	o := obj("hinet", "isp", "telecommunication", "network", "download")
	st, err := d.client.Insert(ctx, o)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if st.NodesContacted != 1 || st.Messages != 2 {
		t.Errorf("insert stats = %+v, want 1 node / 2 messages", st)
	}

	ids, st, err := d.client.PinSearch(ctx, o.Keywords)
	if err != nil {
		t.Fatalf("PinSearch: %v", err)
	}
	if !equalStrings(ids, []string{"hinet"}) {
		t.Errorf("PinSearch = %v", ids)
	}
	if st.NodesContacted != 1 || st.Messages != 2 {
		t.Errorf("pin stats = %+v, want 1 node / 2 messages", st)
	}

	// A different keyword set (even a subset) is not a pin match.
	ids, _, err = d.client.PinSearch(ctx, keyword.NewSet("isp", "network"))
	if err != nil {
		t.Fatalf("PinSearch subset: %v", err)
	}
	if len(ids) != 0 {
		t.Errorf("pin search of subset returned %v", ids)
	}

	found, _, err := d.client.Delete(ctx, o)
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	found, _, err = d.client.Delete(ctx, o)
	if err != nil || found {
		t.Fatalf("second Delete = %v, %v; want not found", found, err)
	}
	ids, _, _ = d.client.PinSearch(ctx, o.Keywords)
	if len(ids) != 0 {
		t.Errorf("pin search after delete = %v", ids)
	}
}

func TestInsertValidation(t *testing.T) {
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	if _, err := d.client.Insert(ctx, Object{}); !errors.Is(err, ErrBadObject) {
		t.Errorf("Insert empty: %v", err)
	}
	if _, err := d.client.Insert(ctx, Object{ID: "x"}); !errors.Is(err, ErrBadObject) {
		t.Errorf("Insert no keywords: %v", err)
	}
	if _, _, err := d.client.PinSearch(ctx, keyword.Set{}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("PinSearch empty: %v", err)
	}
	if _, err := d.client.SupersetSearch(ctx, keyword.Set{}, 1, SearchOptions{}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("SupersetSearch empty: %v", err)
	}
	if _, err := d.client.SupersetSearch(ctx, keyword.NewSet("a"), 0, SearchOptions{}); err == nil {
		t.Error("SupersetSearch threshold 0 succeeded")
	}
}

// corpus builds a deterministic random corpus and inserts it.
func corpus(t *testing.T, d *deployment, n int, seed int64) []Object {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"isp", "news", "mp3", "video", "game", "shop", "travel", "bank", "edu", "tv"}
	objects := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(5)
		words := make([]string, 0, k)
		for j := 0; j < k; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		o := obj("obj-"+strconv.Itoa(i), words...)
		objects = append(objects, o)
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatalf("Insert %s: %v", o.ID, err)
		}
	}
	return objects
}

func TestSupersetSearchMatchesBruteForce(t *testing.T) {
	d := newDeployment(t, 10, 8, 0)
	ctx := context.Background()
	objects := corpus(t, d, 300, 7)

	queries := []keyword.Set{
		keyword.NewSet("isp"),
		keyword.NewSet("news"),
		keyword.NewSet("isp", "news"),
		keyword.NewSet("mp3", "video", "game"),
		keyword.NewSet("nonexistent"),
	}
	for _, q := range queries {
		res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
		if err != nil {
			t.Fatalf("SupersetSearch %v: %v", q, err)
		}
		want := bruteForce(objects, q)
		if got := matchIDs(res.Matches); !equalStrings(got, want) {
			t.Errorf("search %v: got %d matches, want %d\n got  %v\n want %v",
				q, len(got), len(want), got, want)
		}
		if !res.Exhausted {
			t.Errorf("search %v with All not exhausted", q)
		}
	}
}

func TestSupersetSearchEveryOrderAgrees(t *testing.T) {
	d := newDeployment(t, 9, 4, 0)
	ctx := context.Background()
	objects := corpus(t, d, 200, 11)
	q := keyword.NewSet("isp")
	want := bruteForce(objects, q)

	for _, order := range []TraversalOrder{TopDown, BottomUp, ParallelLevels} {
		res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got := matchIDs(res.Matches); !equalStrings(got, want) {
			t.Errorf("order %v: got %d matches, want %d", order, len(got), len(want))
		}
	}
}

func TestTopDownDepthsNonDecreasing(t *testing.T) {
	d := newDeployment(t, 9, 4, 0)
	ctx := context.Background()
	corpus(t, d, 200, 13)
	res, err := d.client.SupersetSearch(ctx, keyword.NewSet("news"), All, SearchOptions{Order: TopDown})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	last := -1
	for _, m := range res.Matches {
		if m.Depth < last {
			t.Fatalf("top-down depths regressed: %d after %d", m.Depth, last)
		}
		last = m.Depth
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches to check")
	}
}

func TestBottomUpDepthsNonIncreasing(t *testing.T) {
	d := newDeployment(t, 9, 4, 0)
	ctx := context.Background()
	corpus(t, d, 200, 13)
	res, err := d.client.SupersetSearch(ctx, keyword.NewSet("news"), All, SearchOptions{Order: BottomUp})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	last := 1 << 30
	for _, m := range res.Matches {
		if m.Depth > last {
			t.Fatalf("bottom-up depths increased: %d after %d", m.Depth, last)
		}
		last = m.Depth
	}
}

func TestThresholdRespected(t *testing.T) {
	d := newDeployment(t, 10, 4, 0)
	ctx := context.Background()
	objects := corpus(t, d, 300, 17)
	q := keyword.NewSet("isp")
	all := bruteForce(objects, q)
	if len(all) < 10 {
		t.Fatalf("corpus too sparse: %d matches", len(all))
	}
	for _, threshold := range []int{1, 3, len(all) - 1, len(all), len(all) + 50} {
		res, err := d.client.SupersetSearch(ctx, q, threshold, SearchOptions{})
		if err != nil {
			t.Fatalf("threshold %d: %v", threshold, err)
		}
		want := threshold
		if want > len(all) {
			want = len(all)
		}
		if len(res.Matches) != want {
			t.Errorf("threshold %d: got %d matches, want %d", threshold, len(res.Matches), want)
		}
		// Every returned match must be a true match.
		for _, m := range res.Matches {
			if !q.SubsetOf(m.Keywords()) {
				t.Errorf("false positive %s (%v)", m.ObjectID, m.Keywords())
			}
		}
	}
}

func TestSearchContactsWholeSubcubeWhenExhaustive(t *testing.T) {
	const r = 8
	d := newDeployment(t, r, 4, 0)
	ctx := context.Background()
	corpus(t, d, 100, 19)
	q := keyword.NewSet("isp", "news")
	rootOnes := d.hasher.Vertex(q).OnesCount()
	res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	wantNodes := 1 << uint(r-rootOnes)
	if res.Stats.NodesContacted != wantNodes {
		t.Errorf("nodes contacted = %d, want 2^(r-|One|) = %d", res.Stats.NodesContacted, wantNodes)
	}
	// Message bound of Section 3.5: at most 2 per contacted node plus
	// the initiator round trip.
	if res.Stats.Messages > 2*wantNodes+2 {
		t.Errorf("messages = %d, exceeds bound %d", res.Stats.Messages, 2*wantNodes+2)
	}
}

func TestEarlyTerminationContactsFewerNodes(t *testing.T) {
	d := newDeployment(t, 10, 4, 0)
	ctx := context.Background()
	objects := corpus(t, d, 400, 23)
	q := keyword.NewSet("isp")
	all := bruteForce(objects, q)
	if len(all) < 20 {
		t.Fatalf("need a popular keyword, got %d matches", len(all))
	}
	exhaustive, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	limited, err := d.client.SupersetSearch(ctx, q, 3, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Stats.NodesContacted >= exhaustive.Stats.NodesContacted {
		t.Errorf("threshold search contacted %d nodes, exhaustive %d — expected early termination",
			limited.Stats.NodesContacted, exhaustive.Stats.NodesContacted)
	}
}

func TestCumulativeSearchPagesAreDisjointAndComplete(t *testing.T) {
	for _, order := range []TraversalOrder{TopDown, BottomUp, ParallelLevels} {
		t.Run(order.String(), func(t *testing.T) {
			d := newDeployment(t, 9, 4, 0)
			ctx := context.Background()
			objects := corpus(t, d, 250, 29)
			q := keyword.NewSet("news")
			want := bruteForce(objects, q)
			if len(want) < 8 {
				t.Fatalf("corpus too sparse: %d", len(want))
			}

			cur, err := d.client.CumulativeSearch(q, SearchOptions{Order: order})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			var got []string
			for !cur.Exhausted() {
				page, _, err := cur.Next(ctx, 3)
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				for _, m := range page {
					if seen[m.ObjectID+"|"+m.SetKey] {
						t.Fatalf("duplicate result %s across pages", m.ObjectID)
					}
					seen[m.ObjectID+"|"+m.SetKey] = true
					got = append(got, m.ObjectID)
				}
			}
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Errorf("cumulative union: got %d, want %d matches", len(got), len(want))
			}
			// After exhaustion, Next fails fast.
			if _, _, err := cur.Next(ctx, 3); !errors.Is(err, ErrExhausted) {
				t.Errorf("Next after exhaustion: %v", err)
			}
		})
	}
}

func TestCumulativePageSizeOneAcrossDenseNode(t *testing.T) {
	// Many objects with the same keyword set live on one node; paging
	// with size 1 must step through them via the partial-node skip.
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	q := keyword.NewSet("common")
	for i := 0; i < 7; i++ {
		if _, err := d.client.Insert(ctx, obj("dense-"+strconv.Itoa(i), "common", "extra")); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := d.client.CumulativeSearch(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for !cur.Exhausted() {
		page, _, err := cur.Next(ctx, 1)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(page) > 1 {
			t.Fatalf("page size exceeded: %d", len(page))
		}
		for _, m := range page {
			got = append(got, m.ObjectID)
		}
	}
	if len(got) != 7 {
		t.Errorf("collected %d of 7 dense objects: %v", len(got), got)
	}
}

func TestStaleSessionRejected(t *testing.T) {
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	corpus(t, d, 50, 31)
	q := keyword.NewSet("isp")
	// Forge a cursor with a bogus session ID.
	cur := &Cursor{client: d.client, query: q, opts: SearchOptions{Order: TopDown}, sessionID: 999999}
	if _, _, err := cur.Next(ctx, 1); !errors.Is(err, ErrNoSuchSession) {
		t.Errorf("bogus session Next: %v", err)
	}
}

func TestSearchSkipsFailedNodes(t *testing.T) {
	d := newDeployment(t, 8, 8, 0)
	ctx := context.Background()
	objects := corpus(t, d, 200, 37)
	q := keyword.NewSet("isp")
	want := bruteForce(objects, q)
	if len(want) == 0 {
		t.Fatal("no matches")
	}

	// Fail one server that does NOT host the query root.
	rootV := d.hasher.Vertex(q)
	rootSrv := d.serverFor(rootV)
	var downAddr transport.Addr
	for i, s := range d.servers {
		if s != rootSrv {
			downAddr = d.addrs[i]
			break
		}
	}
	d.net.SetDown(downAddr, true)

	res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatalf("search with failures: %v", err)
	}
	if res.Stats.NodesContacted == 0 {
		t.Error("no nodes contacted")
	}
	got := matchIDs(res.Matches)
	// All surviving matches must be correct, and matches not hosted on
	// the failed server must all be present.
	for _, m := range res.Matches {
		if !q.SubsetOf(m.Keywords()) {
			t.Errorf("false positive %s", m.ObjectID)
		}
	}
	var wantAlive []string
	for _, o := range objects {
		if !q.SubsetOf(o.Keywords) {
			continue
		}
		v := d.hasher.Vertex(o.Keywords)
		if d.serverFor(v) == rootSrv || d.addrs[int(uint64(v)%uint64(len(d.servers)))] != downAddr {
			wantAlive = append(wantAlive, o.ID)
		}
	}
	sort.Strings(wantAlive)
	if !equalStrings(got, wantAlive) {
		t.Errorf("alive matches: got %d, want %d", len(got), len(wantAlive))
	}
}

func TestPinSearchAfterSupersetConsistency(t *testing.T) {
	d := newDeployment(t, 10, 4, 0)
	ctx := context.Background()
	objects := corpus(t, d, 150, 41)
	// Every superset match with Depth 0 and exact set must be pin-findable.
	q := keyword.NewSet("isp", "news")
	res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		ks := m.Keywords()
		ids, _, err := d.client.PinSearch(ctx, ks)
		if err != nil {
			t.Fatalf("PinSearch %v: %v", ks, err)
		}
		found := false
		for _, id := range ids {
			if id == m.ObjectID {
				found = true
			}
		}
		if !found {
			t.Errorf("object %s (set %v) not pin-findable", m.ObjectID, ks)
		}
	}
	_ = objects
}

func TestLemma33RefinementSearchesSubcube(t *testing.T) {
	// K1 ⊆ K2 ⇒ the K2 traversal touches a subset of the K1 traversal's
	// vertices.
	d := newDeployment(t, 10, 4, 0)
	ctx := context.Background()
	corpus(t, d, 200, 43)
	k1 := keyword.NewSet("isp")
	k2 := keyword.NewSet("isp", "news")
	r1, err := d.client.SupersetSearch(ctx, k1, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.client.SupersetSearch(ctx, k2, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.NodesContacted > r1.Stats.NodesContacted {
		t.Errorf("refined query contacted more nodes (%d) than broad query (%d)",
			r2.Stats.NodesContacted, r1.Stats.NodesContacted)
	}
	// And every K2 match is a K1 match.
	ids1 := map[string]bool{}
	for _, m := range r1.Matches {
		ids1[m.ObjectID] = true
	}
	for _, m := range r2.Matches {
		if !ids1[m.ObjectID] {
			t.Errorf("K2 match %s missing from K1 results", m.ObjectID)
		}
	}
}

func TestHandlerRejectsUnknownMessage(t *testing.T) {
	d := newDeployment(t, 8, 1, 0)
	_, err := d.servers[0].Handler(context.Background(), "", 3.14)
	if !errors.Is(err, ErrUnhandledMessage) {
		t.Errorf("Handler(float) = %v, want ErrUnhandledMessage", err)
	}
}

func TestServerStats(t *testing.T) {
	d := newDeployment(t, 8, 1, 0)
	ctx := context.Background()
	d.client.Insert(ctx, obj("a", "x", "y"))
	d.client.Insert(ctx, obj("b", "x", "y"))
	d.client.Insert(ctx, obj("c", "x", "z"))
	st := d.servers[0].Stats()
	if st.Objects != 3 {
		t.Errorf("Objects = %d, want 3", st.Objects)
	}
	if st.Entries != 2 {
		t.Errorf("Entries = %d, want 2", st.Entries)
	}
	if st.Vertices < 1 || st.Vertices > 2 {
		t.Errorf("Vertices = %d", st.Vertices)
	}
}

func TestPropertyRandomCorporaMatchBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			d := newDeployment(t, 8+trial, 3+trial, 0)
			ctx := context.Background()
			objects := corpus(t, d, 150, int64(100+trial))
			rng := rand.New(rand.NewSource(int64(200 + trial)))
			vocab := []string{"isp", "news", "mp3", "video", "game"}
			for qi := 0; qi < 10; qi++ {
				n := 1 + rng.Intn(3)
				words := make([]string, 0, n)
				for j := 0; j < n; j++ {
					words = append(words, vocab[rng.Intn(len(vocab))])
				}
				q := keyword.NewSet(words...)
				res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
				if err != nil {
					t.Fatalf("search %v: %v", q, err)
				}
				want := bruteForce(objects, q)
				if got := matchIDs(res.Matches); !equalStrings(got, want) {
					t.Errorf("query %v: got %d, want %d", q, len(got), len(want))
				}
			}
		})
	}
}

func TestParallelRoundsMatchSection35TimeBound(t *testing.T) {
	// §3.5: the level-parallel traversal takes r - |One(F_h(K))| rounds
	// where the sequential one takes 2^(r-|One|). Exhaustive searches
	// verify both counters.
	const r = 9
	d := newDeployment(t, r, 4, 0)
	ctx := context.Background()
	corpus(t, d, 250, 71)
	q := keyword.NewSet("isp")
	free := r - d.hasher.Vertex(q).OnesCount()

	seq, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{Order: TopDown})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Rounds != seq.Stats.NodesContacted {
		t.Errorf("sequential rounds = %d, want nodes contacted %d",
			seq.Stats.Rounds, seq.Stats.NodesContacted)
	}
	if seq.Stats.Rounds != 1<<uint(free) {
		t.Errorf("sequential rounds = %d, want 2^free = %d", seq.Stats.Rounds, 1<<uint(free))
	}

	par, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{Order: ParallelLevels})
	if err != nil {
		t.Fatal(err)
	}
	// One wave for the root plus one per level; small constant slack
	// for re-queued partially-consumed nodes.
	if par.Stats.Rounds > free+3 {
		t.Errorf("parallel rounds = %d, want ≈ free dims %d", par.Stats.Rounds, free)
	}
	if par.Stats.Rounds >= seq.Stats.Rounds {
		t.Errorf("parallel rounds %d not below sequential %d", par.Stats.Rounds, seq.Stats.Rounds)
	}
}
