package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
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
	return newPlacedHotDeployment(t, r, nServers, cacheCap, hotReplicas, hotThreshold, func(v hypercube.Vertex) int {
		return int(uint64(v) % uint64(nServers))
	})
}

// newPlacedHotDeployment is newHotDeployment with vertex v hosted by
// server place(v).
func newPlacedHotDeployment(t *testing.T, r, nServers, cacheCap, hotReplicas, hotThreshold int, place func(hypercube.Vertex) int) *deployment {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	hasher := keyword.MustNewHasher(r, 42)
	addrs := make([]transport.Addr, nServers)
	for i := range addrs {
		addrs[i] = transport.Addr("ix-" + strconv.Itoa(i))
	}
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr { return addrs[place(v)] })
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

// sendLog records every request a server sends.
type sendLog struct {
	transport.Sender
	mu   sync.Mutex
	sent []sentBody
}

type sentBody struct {
	to   transport.Addr
	body any
}

func (l *sendLog) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	l.mu.Lock()
	l.sent = append(l.sent, sentBody{to: to, body: body})
	l.mu.Unlock()
	return l.Sender.Send(ctx, to, body)
}

func (l *sendLog) take() []sentBody {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = nil
	return out
}

// softHolder returns the index of a server holding a live soft copy of
// root, failing the test when none does.
func softHolder(t *testing.T, d *deployment, root hypercube.Vertex) int {
	t.Helper()
	for i, srv := range d.servers {
		if srv.soft.lookup(DefaultInstance, root) != nil {
			return i
		}
	}
	t.Fatal("no server holds a soft copy of the root")
	return -1
}

// askSoft sends q to the server at addr as a spreading client does
// (SoftOnly) and maps its answer to the client's view.
func askSoft(ctx context.Context, t *testing.T, d *deployment, addr transport.Addr, q keyword.Set, threshold int) Result {
	t.Helper()
	msg, err := d.client.request(ctx, ClassSuperset, d.hasher.Vertex(q), q.Key(), threshold, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msg.SoftOnly = true
	raw, err := d.net.Send(ctx, addr, msg)
	if err != nil {
		t.Fatalf("soft search at %s: %v", addr, err)
	}
	resp, ok := raw.(respTQuery)
	if !ok || resp.ErrCode != errCodeNone {
		t.Fatalf("soft search at %s answered %#v", addr, raw)
	}
	return result(resp, true)
}

// A soft replica's cache miss is answered from the owner's warm cache:
// the answer is the owner's, the hop is charged (4 messages, 2 frames,
// 2 nodes), the forward carries the query's deadline, the replica
// traverses nothing, and it keeps the answer, so the same query at the
// replica is then a local hit.
func TestSoftReplicaMissAskedOfOwner(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	corpus(t, d, 150, 91)
	q := keyword.NewSet("isp")
	root := d.hasher.Vertex(q)

	var want Result
	for i := 0; i < 3; i++ {
		res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want = res
	}
	if !want.Stats.CacheHit {
		t.Fatal("owner cache not warm after three searches")
	}
	replica := softHolder(t, d, root)
	log := &sendLog{Sender: d.servers[replica].cfg.Sender}
	d.servers[replica].cfg.Sender = log

	res := askSoft(ctx, t, d, d.addrs[replica], q, All)
	if !reflect.DeepEqual(res.Matches, want.Matches) || res.Exhausted != want.Exhausted {
		t.Fatalf("forwarded answer %v (exhausted %v) differs from the owner's %v (exhausted %v)",
			matchIDs(res.Matches), res.Exhausted, matchIDs(want.Matches), want.Exhausted)
	}
	if st := res.Stats; !st.CacheHit || st.Messages != 4 || st.PhysFrames != 2 || st.NodesContacted != 2 {
		t.Errorf("forwarded hit stats = %+v, want a cache hit over 4 messages, 2 frames, 2 nodes", st)
	}
	sent := log.take()
	if len(sent) != 1 {
		t.Fatalf("replica sent %d requests, want only the forward to the owner", len(sent))
	}
	fwd, ok := sent[0].body.(msgTQuery)
	owner := d.addrs[int(uint64(root)%uint64(len(d.addrs)))]
	if !ok || fwd.SoftOnly || sent[0].to != owner {
		t.Fatalf("replica sent %T to %s, want a plain T_QUERY to the owner %s", sent[0].body, sent[0].to, owner)
	}
	if dl, _ := ctx.Deadline(); fwd.DeadlineUnixNano != dl.UnixNano() {
		t.Errorf("forward deadline = %d, want the query's %d", fwd.DeadlineUnixNano, dl.UnixNano())
	}

	again := askSoft(ctx, t, d, d.addrs[replica], q, All)
	if !reflect.DeepEqual(again.Matches, want.Matches) {
		t.Fatal("repeated query at the replica changed its answer")
	}
	if st := again.Stats; !st.CacheHit || st.Messages != 2 || st.PhysFrames != 1 || st.NodesContacted != 1 {
		t.Errorf("repeat stats = %+v, want a local hit over 2 messages, 1 frame, 1 node", st)
	}
	if n := len(log.take()); n != 0 {
		t.Errorf("repeat at the replica sent %d requests, want none", n)
	}
}

// With the owner unreachable, a soft replica's miss falls back to
// traversing its soft copy: the answer is byte-identical to a cache-off
// fleet's, and the failed forward is counted with its cause. The owner
// hosts only the root vertex, so the traversal needs nothing from it.
func TestSoftReplicaFallsBackWhenOwnerUnreachable(t *testing.T) {
	q := keyword.NewSet("isp")
	root := keyword.MustNewHasher(6, 42).Vertex(q)
	place := func(v hypercube.Vertex) int {
		if v == root {
			return 0
		}
		return 1 + int(uint64(v)%3)
	}
	ctx := context.Background()
	cold := newPlacedHotDeployment(t, 6, 4, 0, 0, 3, place)
	corpus(t, cold, 150, 91)
	want, err := cold.client.SupersetSearch(ctx, q, 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	d := newPlacedHotDeployment(t, 6, 4, 100000, 2, 3, place)
	corpus(t, d, 150, 91)
	for i := 0; i < 3; i++ {
		if _, err := d.client.SupersetSearch(ctx, q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	replica := softHolder(t, d, root)
	d.net.SetDown(d.addrs[0], true)

	res := askSoft(ctx, t, d, d.addrs[replica], q, 10)
	if !reflect.DeepEqual(res.Matches, want.Matches) || res.Exhausted != want.Exhausted {
		t.Fatalf("fallback answer %v (exhausted %v) differs from the cache-off fleet's %v (exhausted %v)",
			matchIDs(res.Matches), res.Exhausted, matchIDs(want.Matches), want.Exhausted)
	}
	if res.Stats.CacheHit || res.FailedSubtrees != 0 {
		t.Errorf("fallback stats = %+v, %d failed subtrees; want a complete traversal", res.Stats, res.FailedSubtrees)
	}
	st := d.servers[replica].Stats()
	if st.SoftForwardFailures != 1 || !strings.Contains(st.LastSoftForwardError, string(d.addrs[0])) {
		t.Errorf("forward failures = %d (last %q), want 1 naming the owner %s",
			st.SoftForwardFailures, st.LastSoftForwardError, d.addrs[0])
	}
}

// Only a SoftOnly request is served from a soft copy: a plain T_QUERY
// that reaches a non-owner holding one is refused with ErrNotOwner,
// neither forwarded nor traversed.
func TestPlainQueryAtSoftReplicaRefused(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	corpus(t, d, 150, 91)
	q := keyword.NewSet("isp")
	root := d.hasher.Vertex(q)
	for i := 0; i < 3; i++ {
		if _, err := d.client.SupersetSearch(ctx, q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	replica := d.servers[softHolder(t, d, root)]
	log := &sendLog{Sender: replica.cfg.Sender}
	replica.cfg.Sender = log
	// A server without an ownership hook owns every vertex; give the
	// replica an empty arc so it is a non-owner of the root.
	replica.cfg.OwnedArc = func() (pred, self dht.ID, joined bool) { return 0, 0, false }
	cached := replica.cache.len()

	msg, err := d.client.request(ctx, ClassSuperset, root, q.Key(), 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := replica.Handler(ctx, "", msg); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("plain T_QUERY at a soft replica answered %#v, %v; want ErrNotOwner", resp, err)
	}
	if n := len(log.take()); n != 0 {
		t.Errorf("refused query sent %d requests, want none", n)
	}
	if n := replica.cache.len(); n != cached {
		t.Errorf("refused query changed the replica's cache: %d → %d entries", cached, n)
	}
}
