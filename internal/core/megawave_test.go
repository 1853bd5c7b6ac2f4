package core

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// newRingDeployment is newDeployment on a DHT ring instead of a modulo
// mapping: n servers over inmem, vertices placed by a converged static
// overlay through caching OverlayResolvers, and every server given the
// OwnedArc hook of its true arc (ring predecessor, own ID] — the
// ownership configuration NewPeer wires, without Chord's traffic.
func newRingDeployment(tb testing.TB, r, n int) *deployment {
	tb.Helper()
	net := inmem.New(1)
	tb.Cleanup(func() { net.Close() })
	hasher := keyword.MustNewHasher(r, 42)
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr("ring-" + strconv.Itoa(i))
	}
	overlay, err := dht.NewStatic(addrs)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]dht.ID, n)
	for i, a := range addrs {
		ids[i] = dht.HashString(string(a))
	}
	sorted := append([]dht.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	servers := make([]*Server, n)
	for i := range servers {
		self := ids[i]
		at := sort.Search(n, func(k int) bool { return sorted[k] >= self })
		pred := sorted[(at+n-1)%n]
		srv, err := NewServer(ServerConfig{
			Hasher:     hasher,
			Resolver:   NewOverlayResolver(overlay),
			Sender:     net,
			BatchWaves: BatchOn,
			OwnedArc:   func() (dht.ID, dht.ID, bool) { return pred, self, true },
		})
		if err != nil {
			tb.Fatalf("NewServer: %v", err)
		}
		servers[i] = srv
		if _, err := net.Bind(addrs[i], srv.Handler); err != nil {
			tb.Fatalf("Bind: %v", err)
		}
	}
	client, err := NewClient(hasher, NewOverlayResolver(overlay), net)
	if err != nil {
		tb.Fatalf("NewClient: %v", err)
	}
	return &deployment{net: net, hasher: hasher, servers: servers, addrs: addrs, client: client}
}

// megaWaveFleet loads a 16-peer ring at r = 10 with a corpus shaped
// like the pinned benchmark's deep workload — objects of one to seven
// keywords over a vocabulary wide enough that nearly every vertex hosts
// a table, a query keyword rare enough that nearly every unit of its
// subcube comes back empty — and returns it with that one-keyword
// query.
func megaWaveFleet(tb testing.TB) (*deployment, keyword.Set) {
	tb.Helper()
	d := newRingDeployment(tb, 10, 16)
	rng := rand.New(rand.NewSource(18))
	vocab := make([]string, 800)
	for i := range vocab {
		vocab[i] = "kw" + strconv.Itoa(i)
	}
	ctx := context.Background()
	for i := 0; i < 6000; i++ {
		words := make([]string, 1+rng.Intn(7))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		if _, err := d.client.Insert(ctx, obj("o-"+strconv.Itoa(i), words...)); err != nil {
			tb.Fatal(err)
		}
	}
	return d, keyword.NewSet(vocab[7])
}

// TestMegaWaveBytesPerVertex is the allocation budget of an exhaustive
// wave: everything the fleet allocates for a one-keyword threshold-All
// query — client, root, every peer — divided by the vertices it
// contacts. Nearly all of those have nothing for the query, so the
// figure is the fixed cost of contacting a vertex: its slot in a
// request frame, and on the peer its share of the frame's handling. The
// root's own per-vertex buffers (expanded wave, resolved addresses,
// hits, grouping by peer, the frames' units) come from a pooled scratch
// and cost nothing per query once warm, and a peer scans a frame on the
// goroutine that received it. Dense per-unit result records on either
// side of the wire, anything built per ownership test, a root buffer
// allocated per wave or per frame instead of pooled, or scan workers
// started per frame push it past the budget (the dense design sat near
// 390 B, per-wave root buffers near 128 B, per-frame units and scan
// workers near 55 B; the pooled units and the handler's own scan
// measured about 20 B, and answers grown per vertex at the root and per
// hit at the peer 19.5 B; one arena per frame and one growth per wave
// measure about 13 B).
func TestMegaWaveBytesPerVertex(t *testing.T) {
	res, perVertex := megaWaveBytesPerVertex(t, All)
	if !res.Exhausted || res.Stats.NodesContacted != 512 {
		t.Fatalf("NodesContacted = %d, Exhausted %v: want the whole 2^9 subcube", res.Stats.NodesContacted, res.Exhausted)
	}
	if n := len(res.Matches); n == 0 || n > 64 {
		t.Fatalf("%d matches: the corpus lost the sparse shape the budget is stated for", n)
	}
	if perVertex > 18 {
		t.Errorf("%.1f B allocated per contacted vertex, budget 18", perVertex)
	}
}

// TestTopKWaveBytesPerVertex is the same budget for a top-10 search of
// the same query: the multi-round path, where the root probes level by
// level, then flattens the tail, and collects children and resume units
// between rounds. The root generates every child list itself, so what
// is left is the session's frontier, copied out of the pooled scratch
// every round, and the answers: about 98 B per contacted vertex. Child
// lists decoded from the peers' T_CONT replies cost 280 B, units
// allocated per frame 374 B, every round allocating its own root
// buffers 736 B, answers grown per vertex and per hit 111 B.
func TestTopKWaveBytesPerVertex(t *testing.T) {
	res, perVertex := megaWaveBytesPerVertex(t, 10)
	if len(res.Matches) != 10 || res.Exhausted || res.Stats.Rounds < 2 {
		t.Fatalf("%d matches, Exhausted %v, %d rounds: the search no longer stops early after several rounds",
			len(res.Matches), res.Exhausted, res.Stats.Rounds)
	}
	if perVertex > 124 {
		t.Errorf("%.1f B allocated per contacted vertex, budget 124", perVertex)
	}
}

// megaWaveBytesPerVertex runs megaWaveFleet's batched level search at
// threshold once to warm the resolvers' binding caches, then 200 times
// more, and returns the warm-up's result and the bytes the whole fleet
// allocated per vertex contacted over those 200 runs.
func megaWaveBytesPerVertex(t *testing.T, threshold int) (Result, float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates per goroutine and per sync object; the budget is stated without it")
	}
	d, query := megaWaveFleet(t)
	ctx := context.Background()
	opts := SearchOptions{Order: ParallelLevels, NoCache: true}
	search := func() Result {
		res, err := d.client.SupersetSearch(ctx, query, threshold, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completeness != 1 || (threshold == All && !res.Exhausted) {
			t.Fatalf("Completeness %g, Exhausted %v: the wave did not run clean", res.Completeness, res.Exhausted)
		}
		return res
	}
	warm := search()

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vertices := 0
	for i := 0; i < runs; i++ {
		vertices += search().Stats.NodesContacted
	}
	runtime.ReadMemStats(&after)
	perVertex := float64(after.TotalAlloc-before.TotalAlloc) / float64(vertices)
	t.Logf("%.1f B allocated per contacted vertex (%d vertices, %d matches, %d rounds per query)",
		perVertex, warm.Stats.NodesContacted, len(warm.Matches), warm.Stats.Rounds)
	return warm, perVertex
}

// BenchmarkMegaWave times the same query end to end and reports its
// allocations; bytes/op ÷ 512 is TestMegaWaveBytesPerVertex's figure.
func BenchmarkMegaWave(b *testing.B) {
	d, query := megaWaveFleet(b)
	ctx := context.Background()
	opts := SearchOptions{Order: ParallelLevels, NoCache: true}
	if _, err := d.client.SupersetSearch(ctx, query, All, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.client.SupersetSearch(ctx, query, All, opts); err != nil {
			b.Fatal(err)
		}
	}
}
