package core

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
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

// gatedOverlay wraps a static overlay so the test controls when a
// Lookup completes: every entry deposits a token on entered, then
// blocks until gate closes.
type gatedOverlay struct {
	*dht.Static
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedOverlay) Lookup(ctx context.Context, id dht.ID) (transport.Addr, int, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.Static.Lookup(ctx, id)
}

// TestOverlayResolverSingleflightUnderStampede resolves one cold
// binding from 16 goroutines while the overlay lookup is held open:
// exactly one caller may perform the lookup, the rest must join its
// flight and share the answer.
func TestOverlayResolverSingleflightUnderStampede(t *testing.T) {
	static := staticOverlay(t, 8)
	gated := &gatedOverlay{Static: static, entered: make(chan struct{}, 64), gate: make(chan struct{})}
	r := NewOverlayResolver(gated)
	ctx := context.Background()

	const callers = 16
	addrs := make([]transport.Addr, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addrs[i], errs[i] = r.Resolve(ctx, "main", 9)
		}(i)
	}
	<-gated.entered                   // the leader is inside the overlay lookup
	time.Sleep(20 * time.Millisecond) // let the rest reach the flight table
	close(gated.gate)
	wg.Wait()

	if got := static.Lookups(); got != 1 {
		t.Fatalf("overlay lookups = %d, want 1", got)
	}
	if extra := len(gated.entered); extra != 0 {
		t.Fatalf("%d extra lookups entered the overlay", extra)
	}
	for i := range addrs {
		if errs[i] != nil || addrs[i] == "" || addrs[i] != addrs[0] {
			t.Fatalf("caller %d got %q, %v (want %q, nil)", i, addrs[i], errs[i], addrs[0])
		}
	}
	if r.CacheSize() != 1 {
		t.Errorf("CacheSize = %d, want 1", r.CacheSize())
	}
}

// TestOverlayResolverJoinerHonorsContext: a caller joining an
// in-progress flight with an already-canceled context returns the
// context error instead of blocking on the leader.
func TestOverlayResolverJoinerHonorsContext(t *testing.T) {
	static := staticOverlay(t, 8)
	gated := &gatedOverlay{Static: static, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	r := NewOverlayResolver(gated)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.Resolve(context.Background(), "main", 3)
		leaderDone <- err
	}()
	<-gated.entered // leader holds the flight

	jctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Resolve(jctx, "main", 3); err == nil {
		t.Error("joiner with canceled context returned nil error")
	}

	close(gated.gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader resolve failed: %v", err)
	}
}

// TestResolveBatchCollapsesDuplicates: one ResolveBatch over a wave
// with repeated vertices performs one overlay lookup per distinct
// vertex, and positions of the same vertex agree.
func TestResolveBatchCollapsesDuplicates(t *testing.T) {
	static := staticOverlay(t, 8)
	r := NewOverlayResolver(static)
	ctx := context.Background()

	vs := []hypercube.Vertex{1, 2, 1, 3, 2, 1}
	addrs := make([]transport.Addr, len(vs))
	errs := r.ResolveBatch(ctx, "main", vs, addrs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ResolveBatch[%d]: %v", i, err)
		}
	}
	if addrs[0] != addrs[2] || addrs[0] != addrs[5] || addrs[1] != addrs[4] {
		t.Errorf("duplicate vertices resolved to different addresses: %v", addrs)
	}
	if got := static.Lookups(); got != 3 {
		t.Errorf("overlay lookups = %d, want 3 (one per distinct vertex)", got)
	}
	if r.CacheSize() != 3 {
		t.Errorf("CacheSize = %d, want 3", r.CacheSize())
	}
}

// TestResolveBatchCachedIsOnePass: a fully cached wave is answered
// under one lock acquisition on the caller's goroutine, into the
// caller's address slice, with no errs slice at all (nil = nothing
// failed). Starting a goroutine allocates (its closure at the least),
// so "no allocation at all" proves none was started — a count that, unlike a
// runtime.NumGoroutine delta, cannot miss goroutines that already
// exited. A wave mixing cached vertices, misses and duplicate
// misses still costs one overlay lookup per distinct missing vertex,
// and every position gets the address Resolve gives.
func TestResolveBatchCachedIsOnePass(t *testing.T) {
	static := staticOverlay(t, 8)
	r := NewOverlayResolver(static)
	ctx := context.Background()

	vs := make([]hypercube.Vertex, 512)
	for i := range vs {
		vs[i] = hypercube.Vertex(i)
	}
	want := make([]transport.Addr, len(vs))
	errs := r.ResolveBatch(ctx, "main", vs, want) // cold: fills the cache
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cold ResolveBatch[%d]: %v", i, err)
		}
	}
	lookups := static.Lookups()
	if lookups != 512 {
		t.Fatalf("cold batch did %d overlay lookups, want 512", lookups)
	}

	before := runtime.NumGoroutine()
	addrs := make([]transport.Addr, len(vs))
	allocs := testing.AllocsPerRun(20, func() {
		if errs := r.ResolveBatch(ctx, "main", vs, addrs); addrs[511] != want[511] || errs != nil {
			t.Errorf("cached ResolveBatch[511] = %q, errs %v", addrs[511], errs)
		}
	})
	if allocs > 0 {
		t.Errorf("fully cached batch of 512 made %.0f allocations per call, want 0: it left the caller's goroutine or built an errs slice", allocs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d across fully cached batches", before, after)
	}
	if got := static.Lookups(); got != lookups {
		t.Errorf("fully cached batches did %d overlay lookups", got-lookups)
	}

	// Cached 0..3 interleaved with three distinct misses, two of them
	// repeated.
	mixed := []hypercube.Vertex{0, 600, 1, 601, 600, 2, 602, 601, 3, 600}
	addrs = make([]transport.Addr, len(mixed))
	errs = r.ResolveBatch(ctx, "main", mixed, addrs)
	if got := static.Lookups() - lookups; got != 3 {
		t.Errorf("mixed batch did %d overlay lookups, want 3 (one per distinct miss)", got)
	}
	if errs != nil {
		t.Errorf("mixed batch resolved every vertex but returned errs %v, want nil", errs)
	}
	for i, v := range mixed {
		single, err := r.Resolve(ctx, "main", v)
		if err != nil || addrs[i] != single {
			t.Errorf("mixed[%d] (vertex %d) = %q; Resolve says %q, %v", i, v, addrs[i], single, err)
		}
	}
}
