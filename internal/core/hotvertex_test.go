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
	"github.com/p2pkeyword/keysearch/internal/telemetry"
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

// Generation discipline on the replica side: a stale announcement never
// replaces a newer one, and an invalidation drops only generations at
// or below its own — a cooling demotion sent from a goroutine may land
// after the next promotion's announcement.
func TestSoftStoreGenerationOrdering(t *testing.T) {
	st := newSoftStore()
	promote := func(gen uint64) { st.applyPromote(msgSoftPromote{Instance: "main", Vertex: 7, Gen: gen}) }
	invalidate := func(gen uint64) { st.applyInvalidate(msgSoftInvalidate{Instance: "main", Vertex: 7, Gen: gen}) }
	if st.holds("main", 7) {
		t.Fatal("an empty store holds a root")
	}
	promote(2)
	if !st.holds("main", 7) || st.count() != 1 {
		t.Fatalf("after one announcement: holds %v, count %d", st.holds("main", 7), st.count())
	}
	if st.holds("main", 6) || st.holds("other", 7) {
		t.Error("an announcement of main/7 made another root held")
	}
	// A stale announcement must not replace the gen-2 one, so an
	// invalidation at gen 1 still leaves the root held...
	promote(1)
	invalidate(1)
	if !st.holds("main", 7) {
		t.Error("a stale announcement or invalidation dropped the gen-2 root")
	}
	// ...while one at the held generation drops it.
	invalidate(2)
	if st.holds("main", 7) || st.count() != 0 {
		t.Error("invalidation at the held generation did not drop the root")
	}
	// A late gen-3 demotion after the gen-4 announcement keeps the root.
	promote(4)
	invalidate(3)
	if !st.holds("main", 7) {
		t.Error("a late, older invalidation dropped a newer announcement")
	}
	st.reset()
	if st.holds("main", 7) || st.count() != 0 {
		t.Error("reset kept a root")
	}
}

// A cooling demotion only tells a replica to stop serving the root, so
// a mutation of the root while it is not promoted reaches no replica.
// pickPeers is deterministic, so the next promotion lands on the same
// replica, which must then answer what the owner does, not what it
// cached while serving the earlier promotion.
func TestSoftReplicaRepromotionDropsStaleAnswers(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	q := keyword.NewSet("isp")
	root := d.hasher.Vertex(q)
	for i := 0; i < 4; i++ {
		if _, err := d.client.Insert(ctx, obj("seed-"+strconv.Itoa(i), "isp")); err != nil {
			t.Fatal(err)
		}
	}
	promote := func() int {
		t.Helper()
		for i := 0; i < 3; i++ {
			if _, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return softHolder(t, d, root)
	}
	replica := promote()
	askSoft(ctx, t, d, d.addrs[replica], q, All) // forwarded, and cached at the replica

	// Fresh queries of another vertex run the decay sweep that cools the
	// root; its demotion reaches the replica from a goroutine.
	owner := d.serverFor(root)
	for i := 0; i < hotDecayEvery; i++ {
		owner.hot.note(ctx, DefaultInstance, root^1)
	}
	waitFor(t, 5*time.Second, func() bool { return !d.servers[replica].soft.holds(DefaultInstance, root) }, "cooling demotion")
	if _, err := d.client.Insert(ctx, obj("fresh", "isp")); err != nil {
		t.Fatal(err)
	}
	if again := promote(); again != replica {
		t.Fatalf("re-promotion picked replica %d, want the same %d", again, replica)
	}

	want, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got := askSoft(ctx, t, d, d.addrs[replica], q, All)
	if !reflect.DeepEqual(matchIDs(got.Matches), matchIDs(want.Matches)) {
		t.Fatalf("re-promoted replica answered %v (cache hit %v), the owner %v",
			matchIDs(got.Matches), got.Stats.CacheHit, matchIDs(want.Matches))
	}
}

// Race hammer over the whole hot-vertex layer: concurrent owner-path
// and spread-path searches, promotions, demotions-by-mutation and
// result-cache invalidations. Run under -race (make chaos); the final
// quiesced comparison pins that no replica keeps a stale cached answer
// through the churn.
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

	// Quiesced: every mutation demoted the root synchronously, carrying
	// its key to the replicas' caches, and a re-promotion drops what a
	// replica cached under the last one, so owner, caches and replicas
	// must agree byte-for-byte.
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

// softHolder returns the index of a server that is a soft replica of
// root, failing the test when none is.
func softHolder(t *testing.T, d *deployment, root hypercube.Vertex) int {
	t.Helper()
	for i, srv := range d.servers {
		if srv.soft.holds(DefaultInstance, root) {
			return i
		}
	}
	t.Fatal("no server is a soft replica of the root")
	return -1
}

// instrument wires a fresh telemetry registry into srv's core_*
// metrics, so a test can read the counters of one server.
func instrument(srv *Server) *telemetry.Registry {
	reg := telemetry.New(8)
	srv.met = newServerMetrics(reg)
	return reg
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

// With the owner unreachable, a soft replica holds nothing to answer a
// miss from: it bounces the request with errCodeNoSoftCopy, counts the
// failed forward naming the owner and no soft serve, and a spreading
// client ends where a client of a fleet without the hot layer does.
// The owner hosts only the root vertex.
func TestSoftReplicaBouncesWhenOwnerUnreachable(t *testing.T) {
	q := keyword.NewSet("isp")
	root := keyword.MustNewHasher(6, 42).Vertex(q)
	place := func(v hypercube.Vertex) int {
		if v == root {
			return 0
		}
		return 1 + int(uint64(v)%3)
	}
	ctx := context.Background()
	cold := newPlacedHotDeployment(t, 6, 4, 100000, 0, 3, place)
	corpus(t, cold, 150, 91)
	cold.net.SetDown(cold.addrs[0], true)
	want, wantErr := cold.client.SupersetSearch(ctx, q, 10, SearchOptions{})

	d := newPlacedHotDeployment(t, 6, 4, 100000, 2, 3, place)
	corpus(t, d, 150, 91)
	sc, err := NewClient(d.hasher, FuncResolver(func(v hypercube.Vertex) transport.Addr { return d.addrs[place(v)] }), d.net)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetSpread(true)
	for i := 0; i < 4; i++ {
		if _, err := sc.SupersetSearch(ctx, q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	replica := softHolder(t, d, root)
	reg := instrument(d.servers[replica])
	d.net.SetDown(d.addrs[0], true)

	msg, err := d.client.request(ctx, ClassSuperset, root, q.Key(), 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msg.SoftOnly = true
	raw, err := d.net.Send(ctx, d.addrs[replica], msg)
	if resp, ok := raw.(respTQuery); err != nil || !ok || resp.ErrCode != errCodeNoSoftCopy {
		t.Fatalf("soft search with the owner down answered %#v, %v; want errCodeNoSoftCopy", raw, err)
	}
	st := d.servers[replica].Stats()
	if st.SoftForwardFailures != 1 || !strings.Contains(st.LastSoftForwardError, string(d.addrs[0])) {
		t.Errorf("forward failures = %d (last %q), want 1 naming the owner %s",
			st.SoftForwardFailures, st.LastSoftForwardError, d.addrs[0])
	}
	if n := reg.Snapshot().Counters["core_soft_serves_total"]; n != 0 {
		t.Errorf("a bounced request counted %d soft serves, want 0", n)
	}

	got, gotErr := sc.SupersetSearch(ctx, q, 10, SearchOptions{})
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("spreading client got error %v, a fleet without the hot layer %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || got.Stats.SoftServed {
		t.Errorf("spreading client got %v (soft served %v), a fleet without the hot layer %v",
			matchIDs(got.Matches), got.Stats.SoftServed, matchIDs(want.Matches))
	}
}

// A NoCache search is never spread: a replica answers only from a
// cache, so the search goes to the owner and no replica sees it or
// sends anything.
func TestNoCacheSearchNotSpread(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	corpus(t, d, 150, 91)
	q := keyword.NewSet("isp")
	root := d.hasher.Vertex(q)
	sc := spreadClient(t, d)
	for i := 0; i < 4; i++ {
		if _, err := sc.SupersetSearch(ctx, q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := d.client.SupersetSearch(ctx, q, 10, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var logs []*sendLog
	var regs []*telemetry.Registry
	for _, srv := range d.servers {
		if !srv.soft.holds(DefaultInstance, root) {
			continue
		}
		log := &sendLog{Sender: srv.cfg.Sender}
		srv.cfg.Sender = log
		logs, regs = append(logs, log), append(regs, instrument(srv))
	}
	if len(logs) != 2 {
		t.Fatalf("%d soft replicas of the root, want 2", len(logs))
	}
	for i := 0; i < 6; i++ {
		res, err := sc.SupersetSearch(ctx, q, 10, SearchOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SoftServed || !reflect.DeepEqual(res.Matches, want.Matches) {
			t.Fatalf("NoCache search %d: soft served %v, matches %v; want the owner's %v",
				i, res.Stats.SoftServed, matchIDs(res.Matches), matchIDs(want.Matches))
		}
	}
	for i := range logs {
		if n := len(logs[i].take()); n != 0 {
			t.Errorf("replica %d sent %d requests for NoCache searches, want none", i, n)
		}
		if n := regs[i].Snapshot().Counters[`core_search_class_total{class="superset"}`]; n != 0 {
			t.Errorf("replica %d received %d superset searches, want none", i, n)
		}
	}
}

// A soft replica without a result cache could only forward, so the
// layer refuses to start without one.
func TestHotReplicasNeedCache(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	_, err := NewServer(ServerConfig{
		Hasher:      keyword.MustNewHasher(6, 42),
		Resolver:    FuncResolver(func(hypercube.Vertex) transport.Addr { return "ix-0" }),
		Sender:      net,
		HotReplicas: 2,
	})
	if err == nil {
		t.Fatal("NewServer accepted HotReplicas 2 with CacheCapacity 0")
	}
}

// A promotion sends each replica exactly one announcement, all under
// one generation and carrying no table, however large the root's table
// is.
func TestPromotionSendsOneAnnouncementPerReplica(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	q := keyword.NewSet("hotdoc", "alpha")
	for i := 0; i < 40; i++ {
		if _, err := d.client.Insert(ctx, obj("seed-"+strconv.Itoa(i), "hotdoc", "alpha")); err != nil {
			t.Fatal(err)
		}
	}
	root := d.hasher.Vertex(q)
	owner := d.serverFor(root)
	log := &sendLog{Sender: owner.cfg.Sender}
	owner.cfg.Sender = log
	var res Result
	for i := 0; i < 3; i++ {
		var err error
		if res, err = d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(owner.HotPromotedRoots()) == 0 {
		t.Fatal("root not promoted")
	}
	if len(res.Matches) != 40 {
		t.Fatalf("search found %d matches, want the 40 at the root", len(res.Matches))
	}
	var to []string
	var gen uint64
	for _, sb := range log.take() {
		switch body := sb.body.(type) {
		case msgSoftPromote:
			if gen == 0 {
				gen = body.Gen
			}
			if want := (msgSoftPromote{Instance: DefaultInstance, Vertex: uint64(root), Gen: gen}); !reflect.DeepEqual(body, want) {
				t.Errorf("announcement to %s = %#v, want %#v", sb.to, body, want)
			}
			to = append(to, string(sb.to))
		case msgSoftInvalidate:
			t.Errorf("promotion sent an invalidation to %s", sb.to)
		}
	}
	sort.Strings(to)
	var replicas []string
	for i, srv := range d.servers {
		if srv.soft.holds(DefaultInstance, root) {
			replicas = append(replicas, string(d.addrs[i]))
		}
	}
	if len(replicas) != 2 || !equalStrings(to, replicas) {
		t.Errorf("announcements went to %v, replicas are %v; want one each to 2 replicas", to, replicas)
	}
}

// An invalidation a replica does not receive is counted on the owner
// with its cause, naming the replica.
func TestSoftInvalidationFailureCounted(t *testing.T) {
	d := newHotDeployment(t, 6, 4, 100000, 2, 3)
	ctx := context.Background()
	q := keyword.NewSet("hotdoc", "alpha")
	if _, err := d.client.Insert(ctx, obj("seed", "hotdoc", "alpha")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	root := d.hasher.Vertex(q)
	owner := d.serverFor(root)
	if len(owner.HotPromotedRoots()) == 0 {
		t.Fatal("root not promoted")
	}
	down := d.addrs[softHolder(t, d, root)]
	d.net.SetDown(down, true)
	if _, err := d.client.Insert(ctx, obj("fresh", "hotdoc", "alpha")); err != nil {
		t.Fatal(err)
	}
	if roots := owner.HotPromotedRoots(); len(roots) != 0 {
		t.Fatalf("root still promoted after mutation: %v", roots)
	}
	st := owner.Stats()
	if st.SoftInvalidationFailures != 1 || !strings.Contains(st.LastSoftInvalidationError, string(down)) {
		t.Errorf("invalidation failures = %d (last %q), want 1 naming the replica %s",
			st.SoftInvalidationFailures, st.LastSoftInvalidationError, down)
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
