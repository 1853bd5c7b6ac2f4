package core

import (
	"cmp"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/dht/chord"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// batchVocab is the keyword pool the equivalence corpora draw from:
// small enough that queries hit crowded subcubes, large enough that
// objects spread over many vertices.
var batchVocab = []string{
	"alpha", "bravo", "charlie", "delta", "echo",
	"foxtrot", "golf", "hotel", "india", "juliet",
}

// batchCorpus derives a deterministic object list from seed.
func batchCorpus(seed int64, n int) []Object {
	rng := rand.New(rand.NewSource(seed))
	objects := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(4)
		perm := rng.Perm(len(batchVocab))
		words := make([]string, k)
		for j := 0; j < k; j++ {
			words[j] = batchVocab[perm[j]]
		}
		objects = append(objects, obj("o-"+strconv.Itoa(i), words...))
	}
	return objects
}

// batchQueries derives a deterministic query mix (sizes 1–3) from seed.
func batchQueries(seed int64) []keyword.Set {
	rng := rand.New(rand.NewSource(seed))
	var queries []keyword.Set
	for _, w := range batchVocab {
		queries = append(queries, keyword.NewSet(w))
	}
	for i := 0; i < 8; i++ {
		perm := rng.Perm(len(batchVocab))
		queries = append(queries, keyword.NewSet(batchVocab[perm[0]], batchVocab[perm[1]]))
		queries = append(queries, keyword.NewSet(batchVocab[perm[2]], batchVocab[perm[3]], batchVocab[perm[4]]))
	}
	return queries
}

// requireSameResult asserts that the batched and unbatched dispatch
// paths produced byte-identical outcomes: match sequence (including
// order), exhaustion, logical message and node accounting, completeness
// and failure counts, and the per-vertex trace. Rounds and PhysFrames
// are the two fields batching is allowed to change.
func requireSameResult(t *testing.T, label string, ro, rb Result, errOff, errOn error) {
	t.Helper()
	if (errOff == nil) != (errOn == nil) {
		t.Fatalf("%s: error mismatch: unbatched %v, batched %v", label, errOff, errOn)
	}
	if errOff != nil {
		return
	}
	if len(ro.Matches) != len(rb.Matches) {
		t.Fatalf("%s: match count %d vs %d", label, len(ro.Matches), len(rb.Matches))
	}
	for i := range ro.Matches {
		if ro.Matches[i] != rb.Matches[i] {
			t.Fatalf("%s: match[%d] %+v vs %+v", label, i, ro.Matches[i], rb.Matches[i])
		}
	}
	if ro.Exhausted != rb.Exhausted {
		t.Errorf("%s: Exhausted %v vs %v", label, ro.Exhausted, rb.Exhausted)
	}
	if ro.Stats.Messages != rb.Stats.Messages {
		t.Errorf("%s: logical Messages %d vs %d", label, ro.Stats.Messages, rb.Stats.Messages)
	}
	if ro.Stats.NodesContacted != rb.Stats.NodesContacted {
		t.Errorf("%s: NodesContacted %d vs %d", label, ro.Stats.NodesContacted, rb.Stats.NodesContacted)
	}
	if ro.Completeness != rb.Completeness {
		t.Errorf("%s: Completeness %g vs %g", label, ro.Completeness, rb.Completeness)
	}
	if ro.FailedSubtrees != rb.FailedSubtrees {
		t.Errorf("%s: FailedSubtrees %d vs %d", label, ro.FailedSubtrees, rb.FailedSubtrees)
	}
	if len(ro.Trace) != len(rb.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(ro.Trace), len(rb.Trace))
	}
	for i := range ro.Trace {
		if ro.Trace[i] != rb.Trace[i] {
			t.Fatalf("%s: trace[%d] %+v vs %+v", label, i, ro.Trace[i], rb.Trace[i])
		}
	}
}

// TestBatchedParallelEquivalence runs the same seeded query mix at
// several thresholds against two identically loaded multi-server
// deployments — one dispatching per message, one batching waves — and
// requires byte-identical results, traces and logical accounting.
// Exhaustive runs are additionally checked against brute force.
func TestBatchedParallelEquivalence(t *testing.T) {
	const r, nServers = 8, 4
	off := newDeploymentMode(t, r, nServers, 0, BatchOff)
	on := newDeploymentMode(t, r, nServers, 0, BatchOn)

	objects := batchCorpus(7, 120)
	ctx := context.Background()
	for _, o := range objects {
		if _, err := off.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
		if _, err := on.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}

	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}
	for _, q := range batchQueries(11) {
		for _, th := range []int{1, 3, All} {
			ro, errOff := off.client.SupersetSearch(ctx, q, th, opts)
			rb, errOn := on.client.SupersetSearch(ctx, q, th, opts)
			label := q.Key() + "/th=" + strconv.Itoa(th)
			requireSameResult(t, label, ro, rb, errOff, errOn)
			if errOn == nil && th == All {
				want := bruteForce(objects, q)
				got := matchIDs(rb.Matches)
				sort.Strings(want)
				sort.Strings(got)
				if !equalStrings(got, want) {
					t.Fatalf("%s: batched exhaustive result %v, brute force %v", label, got, want)
				}
			}
		}
	}
}

// TestBatchedParallelEquivalenceUnderFailures repeats the equivalence
// check with two physical peers crashed in both deployments: the batch
// frame to a dead peer fails as a whole, every unit falls back to the
// per-message path, and the failure accounting (failed subtrees,
// completeness, trace Failed flags) must still match exactly.
func TestBatchedParallelEquivalenceUnderFailures(t *testing.T) {
	const r, nServers = 8, 4
	off := newDeploymentMode(t, r, nServers, 0, BatchOff)
	on := newDeploymentMode(t, r, nServers, 0, BatchOn)

	objects := batchCorpus(13, 100)
	ctx := context.Background()
	for _, o := range objects {
		if _, err := off.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
		if _, err := on.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the same two peers in both fleets (indexes, not roots of any
	// particular query — queries whose root lands on them error out
	// identically in both modes, which the comparison also covers).
	for _, i := range []int{1, 3} {
		off.net.SetDown(off.addrs[i], true)
		on.net.SetDown(on.addrs[i], true)
	}

	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}
	sawFailure := false
	for _, q := range batchQueries(17) {
		for _, th := range []int{3, All} {
			ro, errOff := off.client.SupersetSearch(ctx, q, th, opts)
			rb, errOn := on.client.SupersetSearch(ctx, q, th, opts)
			label := q.Key() + "/th=" + strconv.Itoa(th)
			requireSameResult(t, label, ro, rb, errOff, errOn)
			if errOn != nil || rb.FailedSubtrees > 0 {
				sawFailure = true
			}
		}
	}
	if !sawFailure {
		t.Fatal("no query exercised the failure path; the test lost its teeth")
	}
}

// TestBatchedSearchCutsPhysicalFrames pins the point of the feature: an
// exhaustive parallel search over a 2^9-vertex subcube folded onto 4
// physical peers needs ~512 frames per message but only ~5 batched
// (one per distinct peer plus the initiator's), with identical matches
// and identical logical message counts.
func TestBatchedSearchCutsPhysicalFrames(t *testing.T) {
	const r, nServers = 10, 4
	off := newDeploymentMode(t, r, nServers, 0, BatchOff)
	on := newDeploymentMode(t, r, nServers, 0, BatchOn)

	ctx := context.Background()
	for i := 0; i < 12; i++ {
		o := obj("hub-"+strconv.Itoa(i), "hub", "extra"+strconv.Itoa(i%5))
		if _, err := off.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
		if _, err := on.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}

	query := keyword.NewSet("hub")
	opts := SearchOptions{Order: ParallelLevels, NoCache: true}
	ro, err := off.client.SupersetSearch(ctx, query, All, opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := on.client.SupersetSearch(ctx, query, All, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "hub/All", ro, rb, nil, nil)
	if ro.Stats.PhysFrames < 3*rb.Stats.PhysFrames {
		t.Fatalf("PhysFrames %d unbatched vs %d batched: reduction below 3x",
			ro.Stats.PhysFrames, rb.Stats.PhysFrames)
	}
	// Batched frames are bounded by the fleet size (one frame per
	// distinct peer) plus the initiator's request.
	if rb.Stats.PhysFrames > nServers+1 {
		t.Errorf("batched PhysFrames = %d, want at most %d", rb.Stats.PhysFrames, nServers+1)
	}
	if rb.Stats.Messages != ro.Stats.Messages {
		t.Errorf("logical Messages changed under batching: %d vs %d",
			ro.Stats.Messages, rb.Stats.Messages)
	}
}

// chordRing builds an n-node Chord ring on net, stabilized until
// converged and with full finger tables; reg, when set, counts its
// lookups.
func chordRing(tb testing.TB, net *inmem.Network, n int, reg *telemetry.Registry) []*chord.Node {
	tb.Helper()
	ctx := context.Background()
	nodes := make([]*chord.Node, n)
	for i := range nodes {
		addr := transport.Addr("ring-" + strconv.Itoa(i))
		nodes[i] = chord.New(addr, net, chord.Config{Telemetry: reg})
		if _, err := net.Bind(addr, nodes[i].Handler); err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			nodes[i].Create()
		} else if err := nodes[i].Join(ctx, nodes[0].Addr()); err != nil {
			tb.Fatal(err)
		}
	}
	for round := 0; round < 3*n; round++ {
		for _, nd := range nodes {
			_ = nd.StabilizeOnce(ctx)
		}
	}
	for _, nd := range nodes {
		if err := nd.FixAllFingers(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	return nodes
}

// successorOf returns the address of the ring member that owns key.
func successorOf(nodes []*chord.Node, key dht.ID) transport.Addr {
	sorted := slices.Clone(nodes)
	slices.SortFunc(sorted, func(a, b *chord.Node) int { return cmp.Compare(a.ID(), b.ID()) })
	for _, nd := range sorted {
		if nd.ID() >= key {
			return nd.Addr()
		}
	}
	return sorted[0].Addr()
}

// TestResolveBatchCollapsesDuplicates: Owners over a cold wave of a
// converged 8-node Chord ring, with every vertex repeated, names each
// vertex's successor, equal at every position of the same vertex, and
// looks up at most one key per unknown arc — one per ring member — not
// one per vertex.
func TestResolveBatchCollapsesDuplicates(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	reg := telemetry.New(4)
	nodes := chordRing(t, net, 8, reg)
	r := NewOverlayResolver(nodes[0])
	ctx := context.Background()

	vs := make([]hypercube.Vertex, 0, 1024)
	for v := hypercube.Vertex(0); v < 512; v++ {
		vs = append(vs, v, 511-v)
	}
	before := reg.Snapshot().Counters["chord_lookups_total"]
	addrs := make([]transport.Addr, len(vs))
	if errs := r.Owners(ctx, DefaultInstance, vs, addrs); errs != nil {
		t.Fatalf("Owners: %v", errs)
	}
	for i, v := range vs {
		if want := successorOf(nodes, VertexKey(DefaultInstance, v)); addrs[i] != want {
			t.Fatalf("vertex %d at %d named %s, want its successor %s", v, i, addrs[i], want)
		}
	}
	if got := reg.Snapshot().Counters["chord_lookups_total"] - before; got > uint64(len(nodes)) {
		t.Errorf("cold wave of %d vertices made %d lookups, want at most one per arc (%d)", len(vs), got, len(nodes))
	}
}

// TestResolveBatchCachedIsOnePass: once a wave has taught the route its
// arcs, Owners over the same 512 vertices makes no lookup, starts no
// goroutine and builds no errs slice: one pass on the caller's
// goroutine, into the caller's addrs, with no allocation at all (a
// started goroutine would allocate its closure at the least). The same
// vertices resolved one at a time agree.
func TestResolveBatchCachedIsOnePass(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	reg := telemetry.New(4)
	nodes := chordRing(t, net, 8, reg)
	r := NewOverlayResolver(nodes[0])
	ctx := context.Background()

	vs := make([]hypercube.Vertex, 512)
	for i := range vs {
		vs[i] = hypercube.Vertex(i)
	}
	want := make([]transport.Addr, len(vs))
	if errs := r.Owners(ctx, "main", vs, want); errs != nil { // cold: teaches the arcs
		t.Fatalf("cold Owners: %v", errs)
	}
	lookups := reg.Snapshot().Counters["chord_lookups_total"]

	before := runtime.NumGoroutine()
	addrs := make([]transport.Addr, len(vs))
	allocs := testing.AllocsPerRun(20, func() {
		if errs := r.Owners(ctx, "main", vs, addrs); addrs[511] != want[511] || errs != nil {
			t.Errorf("warm Owners[511] = %q, errs %v", addrs[511], errs)
		}
	})
	if allocs > 0 {
		t.Errorf("warm wave of 512 made %.0f allocations per call, want 0: it left the caller's goroutine or built an errs slice", allocs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d across warm waves", before, after)
	}
	if got := reg.Snapshot().Counters["chord_lookups_total"]; got != lookups {
		t.Errorf("warm waves made %d lookups", got-lookups)
	}
	for i, v := range vs {
		if single, err := resolveOwner(ctx, r, "main", v); err != nil || single != want[i] {
			t.Errorf("vertex %d: the wave named %q, alone %q, %v", v, want[i], single, err)
		}
	}
}

// TestOwnersConcurrentColdWaves: eight goroutines name the owners of
// the same cold wave at once through one resolver, so they race to fill
// the ring-key memo and to teach the node's arc table; every position
// still names the key's successor. Run under -race, it checks that a
// published chunk and arc view are only read.
func TestOwnersConcurrentColdWaves(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := chordRing(t, net, 8, nil)
	r := NewOverlayResolver(nodes[1])
	vs := make([]hypercube.Vertex, 512)
	for i := range vs {
		vs[i] = hypercube.Vertex(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			addrs := make([]transport.Addr, len(vs))
			if errs := r.Owners(context.Background(), DefaultInstance, vs, addrs); errs != nil {
				t.Errorf("Owners: %v", errs)
				return
			}
			for i, v := range vs {
				if want := successorOf(nodes, VertexKey(DefaultInstance, v)); addrs[i] != want {
					t.Errorf("vertex %d named %s, want %s", v, addrs[i], want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
