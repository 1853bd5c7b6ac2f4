package core

import (
	"context"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// newHotDeployment is newDeployment with the hot-vertex layer enabled:
// soft replication onto hotReplicas peers after hotThreshold fresh
// queries of a root (a small log would never reach the production
// DefaultHotPromoteThreshold).
func newHotDeployment(t *testing.T, r, nServers, cacheCap, hotReplicas, hotThreshold int) *deployment {
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
			HotReplicas:   hotReplicas,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		srv.hot.threshold = hotThreshold
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

// spreadClient builds a second client of the deployment with request
// spreading enabled.
func spreadClient(t *testing.T, d *deployment) *Client {
	t.Helper()
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr {
		return d.addrs[int(uint64(v)%uint64(len(d.addrs)))]
	})
	c, err := NewClient(d.hasher, resolver, d.net)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c.SetSpread(true)
	return c
}

// promotedAcrossFleet collects every server's promoted-root fingerprint
// in sorted order.
func promotedAcrossFleet(d *deployment) []string {
	var out []string
	for _, srv := range d.servers {
		out = append(out, srv.HotPromotedRoots()...)
	}
	sort.Strings(out)
	return out
}

// Crossing the promotion threshold soft-replicates the root, and a
// spreading client's searches are served by the replicas with answers
// byte-identical to the owner's.
func TestHotRootPromotionSpreadsByteIdentical(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	corpus(t, d, 150, 91)
	q := keyword.NewSet("isp")

	want, err := d.client.SupersetSearch(ctx, q, 10, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.client.SupersetSearch(ctx, q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	rootSrv := d.serverFor(d.hasher.Vertex(q))
	if roots := rootSrv.HotPromotedRoots(); len(roots) == 0 {
		t.Fatal("root not promoted after crossing the threshold")
	}

	sc := spreadClient(t, d)
	softServes := 0
	for i := 0; i < 8; i++ {
		res, err := sc.SupersetSearch(ctx, q, 10, SearchOptions{})
		if err != nil {
			t.Fatalf("spread search %d: %v", i, err)
		}
		if res.Stats.SoftServed {
			softServes++
		}
		if !reflect.DeepEqual(res.Matches, want.Matches) {
			t.Fatalf("spread search %d differs from owner answer (softServed=%v)", i, res.Stats.SoftServed)
		}
	}
	if softServes == 0 {
		t.Error("no spread search was served by a soft replica")
	}
}

// The same serial query log over two identically configured fleets
// promotes the identical root set: the layer is deterministic (no
// clocks, no randomness).
func TestHotPromotionDeterministic(t *testing.T) {
	queriesOf := func(d *deployment) {
		t.Helper()
		ctx := context.Background()
		corpus(t, d, 120, 97)
		log := []keyword.Set{
			keyword.NewSet("isp"), keyword.NewSet("news"), keyword.NewSet("isp"),
			keyword.NewSet("mp3", "video"), keyword.NewSet("isp"), keyword.NewSet("news"),
			keyword.NewSet("news"), keyword.NewSet("isp"), keyword.NewSet("mp3", "video"),
			keyword.NewSet("news"), keyword.NewSet("mp3", "video"), keyword.NewSet("game"),
		}
		for _, q := range log {
			if _, err := d.client.SupersetSearch(ctx, q, 5, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d1 := newHotDeployment(t, 6, 4, 100000, 2, 3)
	queriesOf(d1)
	d2 := newHotDeployment(t, 6, 4, 100000, 2, 3)
	queriesOf(d2)

	p1, p2 := promotedAcrossFleet(d1), promotedAcrossFleet(d2)
	if len(p1) == 0 {
		t.Fatal("query log promoted nothing")
	}
	if !equalStrings(p1, p2) {
		t.Errorf("promotion sets differ across identical runs:\n d1 %v\n d2 %v", p1, p2)
	}
}

// Mutating a promoted vertex demotes it everywhere: the owner drops its
// advertisement, the replicas drop their copies, and a spreading client
// transparently falls back to the owner for the fresh answer.
func TestSoftCopyInvalidatedOnMutation(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	q := keyword.NewSet("hotdoc", "alpha")
	for i := 0; i < 4; i++ {
		if _, err := d.client.Insert(ctx, obj("seed-"+strconv.Itoa(i), "hotdoc", "alpha")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	rootSrv := d.serverFor(d.hasher.Vertex(q))
	if len(rootSrv.HotPromotedRoots()) == 0 {
		t.Fatal("root not promoted")
	}

	sc := spreadClient(t, d)
	soft := false
	for i := 0; i < 4 && !soft; i++ {
		res, err := sc.SupersetSearch(ctx, q, All, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		soft = soft || res.Stats.SoftServed
	}
	if !soft {
		t.Fatal("spread client never reached a soft replica before the mutation")
	}

	// The new entry has exactly the query's keyword set, so it lands on
	// the promoted root vertex itself and must demote it.
	if _, err := d.client.Insert(ctx, obj("fresh", "hotdoc", "alpha")); err != nil {
		t.Fatal(err)
	}
	if roots := rootSrv.HotPromotedRoots(); len(roots) != 0 {
		t.Fatalf("root still promoted after mutation: %v", roots)
	}
	for i := 0; i < 6; i++ {
		res, err := sc.SupersetSearch(ctx, q, All, SearchOptions{})
		if err != nil {
			t.Fatalf("post-mutation search %d: %v", i, err)
		}
		ids := matchIDs(res.Matches)
		if !equalStrings(ids, []string{"fresh", "seed-0", "seed-1", "seed-2", "seed-3"}) {
			t.Fatalf("post-mutation search %d served stale results: %v (softServed=%v)",
				i, ids, res.Stats.SoftServed)
		}
	}
}

// mutateOnFirstPromote forwards every send, except that before the
// first soft-promotion chunk it runs mutate once: a mutation landing in
// the middle of a promotion push.
type mutateOnFirstPromote struct {
	transport.Sender
	once   sync.Once
	mutate func()
}

func (m *mutateOnFirstPromote) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	if _, ok := body.(msgSoftPromote); ok {
		m.once.Do(m.mutate)
	}
	return m.Sender.Send(ctx, to, body)
}

// A root mutated while its promotion is being pushed is not promoted:
// the copies already pushed snapshot the old table, so the owner tears
// them down and no replica serves one.
func TestSoftPromotionAbandonedOnMidPushMutation(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	q := keyword.NewSet("hotdoc", "alpha")
	if _, err := d.client.Insert(ctx, obj("seed", "hotdoc", "alpha")); err != nil {
		t.Fatal(err)
	}
	root := d.hasher.Vertex(q)
	rootSrv := d.serverFor(root)
	fired := false
	hook := &mutateOnFirstPromote{Sender: rootSrv.cfg.Sender}
	hook.mutate = func() {
		fired = true
		if _, err := d.client.Insert(ctx, obj("mid-push", "hotdoc", "alpha")); err != nil {
			t.Error(err)
		}
	}
	rootSrv.cfg.Sender = hook

	for i := 0; i < 3; i++ {
		if _, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if !fired {
		t.Fatal("the promotion pushed no chunk: nothing was promoted")
	}
	if roots := rootSrv.HotPromotedRoots(); len(roots) != 0 {
		t.Fatalf("root promoted despite a mid-push mutation: %v", roots)
	}
	for i, srv := range d.servers {
		if tbl := srv.soft.lookup("main", root); tbl != nil {
			t.Errorf("server %d serves a soft copy of the abandoned promotion", i)
		}
	}
	if n := len(rootSrv.hot.mutGens); n != 0 {
		t.Errorf("mutGens holds %d entries after the promotion returned", n)
	}
}

// mutGens holds an epoch only while its root is being promoted, so
// mutations of vertices nobody promotes leave nothing behind.
func TestMutGensBounded(t *testing.T) {
	d := newHotDeployment(t, 14, 1, 0, 2, 3)
	h := d.servers[0].hot
	for v := 0; v < 10000; v++ {
		h.noteMutation("main", hypercube.Vertex(v), "")
	}
	if n := len(h.mutGens); n != 0 {
		t.Errorf("mutGens holds %d entries after 10000 mutations of unpromoted vertices", n)
	}
}

// Generation discipline on the replica side: stale promotions never
// overwrite newer copies, and invalidations drop only generations at or
// below their own.
func TestSoftStoreGenerationOrdering(t *testing.T) {
	st := newSoftStore()
	mk := func(gen uint64, id string, done bool) msgSoftPromote {
		return msgSoftPromote{
			Instance: "main", Vertex: 7, Gen: gen, Done: done,
			Entries: []BulkEntry{{Instance: "main", Vertex: 7, SetKey: "a", ObjectID: id}},
		}
	}
	st.applyPromote(mk(2, "new", true))
	if st.count() != 1 {
		t.Fatalf("live copies = %d, want 1", st.count())
	}
	// A stale full push must not displace the live gen-2 copy.
	st.applyPromote(mk(1, "old", true))
	tbl := st.lookup("main", 7)
	if tbl == nil {
		t.Fatal("live copy vanished")
	}
	if ms, _ := tbl.scan(7, 7, predFor(ClassPin, "a"), 0, -1); len(ms) != 1 || ms[0].ObjectID != "new" {
		t.Errorf("stale generation displaced the live copy: %v", ms)
	}
	// An invalidation older than the live copy is ignored...
	st.applyInvalidate(msgSoftInvalidate{Instance: "main", Vertex: 7, Gen: 1})
	if st.count() != 1 {
		t.Error("stale invalidation dropped a newer copy")
	}
	// ...while one at the live generation drops it.
	st.applyInvalidate(msgSoftInvalidate{Instance: "main", Vertex: 7, Gen: 2})
	if st.count() != 0 {
		t.Error("invalidation at the live generation did not drop the copy")
	}
	// A half-pushed (no Done) copy never serves.
	st.applyPromote(mk(3, "partial", false))
	if st.lookup("main", 7) != nil {
		t.Error("pending copy served before its Done chunk")
	}
}

// Race hammer over the whole hot-vertex layer: concurrent owner-path
// and spread-path searches, promotions, demotions-by-mutation and
// result-cache invalidations. Run under -race (make chaos); the final
// quiesced comparison pins that no stale soft copy survives the churn.
func TestHotCachePromotionHammer(t *testing.T) {
	d := newHotDeployment(t, 5, 4, 4096, 2, 4)
	ctx := context.Background()
	corpus(t, d, 80, 101)
	hot := keyword.NewSet("hotdoc", "beta")
	for i := 0; i < 3; i++ {
		if _, err := d.client.Insert(ctx, obj("hot-"+strconv.Itoa(i), "hotdoc", "beta")); err != nil {
			t.Fatal(err)
		}
	}
	queries := []keyword.Set{hot, keyword.NewSet("isp"), keyword.NewSet("news"), keyword.NewSet("mp3")}

	const iters = 150
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(i+w)%len(queries)]
				_, _ = d.client.SupersetSearch(ctx, q, 10, SearchOptions{})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := spreadClient(t, d)
		for i := 0; i < iters; i++ {
			_, _ = sc.SupersetSearch(ctx, hot, 10, SearchOptions{})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			o := obj("churn", "hotdoc", "beta")
			_, _ = d.client.Insert(ctx, o)
			_, _, _ = d.client.Delete(ctx, o)
		}
	}()
	wg.Wait()

	// One serial mutation after quiescing: searches in flight during the
	// churn may have cached results that predate the last concurrent
	// mutation (the documented cache staleness window); a mutation with
	// no query in flight invalidates serially, so everything after it is
	// exact.
	flush := obj("churn", "hotdoc", "beta")
	if _, err := d.client.Insert(ctx, flush); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.client.Delete(ctx, flush); err != nil {
		t.Fatal(err)
	}

	// Quiesced: every mutation demoted the root synchronously and the
	// mid-push epoch check kills stale promotions, so owner, cache and
	// any surviving soft copies must agree byte-for-byte.
	want, err := d.client.SupersetSearch(ctx, hot, All, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := spreadClient(t, d)
	for i := 0; i < 6; i++ {
		res, err := sc.SupersetSearch(ctx, hot, All, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Matches, want.Matches) {
			t.Fatalf("post-hammer spread search %d disagrees with owner (softServed=%v):\n got %v\nwant %v",
				i, res.Stats.SoftServed, matchIDs(res.Matches), matchIDs(want.Matches))
		}
	}
}
