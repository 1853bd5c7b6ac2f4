package core

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// expandFrontierReference is the queue-based expansion the in-place
// one replaced, kept as its specification: one branch's run of the
// frontier at a time, pop a unit, queue its SBT children in its branch
// (hypercube.InducedChildEdges from the branch root, minus the ones
// carrying a masked dimension below it), emit it with genDim -1. A
// unit's branch is §3.4's partition: e_{lowbit(v ∧ M)} for a prefix
// multicast, the session root when the mask is empty.
func expandFrontierReference(sess *session, frontier []workUnit) []workUnit {
	mask := hypercube.Vertex(sess.pred.mask)
	branchOf := func(v hypercube.Vertex) (root, exclude hypercube.Vertex) {
		if v&mask == 0 {
			return sess.root, 0
		}
		d := bits.TrailingZeros64(uint64(v & mask))
		return 1 << uint(d), mask & (1<<uint(d) - 1)
	}
	var out []workUnit
	for len(frontier) > 0 {
		root, exclude := branchOf(frontier[0].vertex)
		k := 1
		for ; k < len(frontier); k++ {
			if r, _ := branchOf(frontier[k].vertex); r != root {
				break
			}
		}
		queue := append([]workUnit(nil), frontier[:k]...)
		frontier = frontier[k:]
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if u.genDim >= 0 {
				for _, e := range sess.cube.InducedChildEdges(root, u.vertex, u.genDim) {
					if e.To&exclude == 0 {
						queue = append(queue, workUnit{vertex: e.To, genDim: e.Dim})
					}
				}
			}
			u.genDim = -1
			out = append(out, u)
		}
	}
	return out
}

// TestExpandFrontierMatchesReference: the in-place enumeration emits
// the identical unit sequence to the queue-based reference — same
// vertices, same order, same skips, every genDim -1 — and exactly
// session.remaining units, for seeded random superset roots and prefix
// masks up to r = 12, from the seed frontier and from a mid-traversal
// one (resume units ahead of a level's children, ahead of the later
// branches).
func TestExpandFrontierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 400; trial++ {
		r := 1 + rng.Intn(12)
		cube, err := hypercube.New(r)
		if err != nil {
			t.Fatal(err)
		}
		full := hypercube.Vertex(1)<<uint(r) - 1
		sess := &session{cube: cube, root: hypercube.Vertex(rng.Uint64()) & full}
		if trial%3 != 0 {
			// A prefix multicast, addressed to its lowest masked dimension.
			mask := hypercube.Vertex(rng.Uint64()) & full
			if mask == 0 {
				mask = full
			}
			sess.root, sess.pred = mask&-mask, queryPred{class: ClassPrefix, mask: uint64(mask)}
		}

		frontier := sess.seed()
		if trial%2 == 1 {
			// What a later round of a levelled search holds: units to
			// resume (match-only, with a skip) ahead of fresh children.
			head := []workUnit{{vertex: frontier[0].vertex, genDim: -1, skip: 1 + rng.Intn(5)}}
			frontier = append(sess.appendChildren(head, frontier[0]), frontier[1:]...)
		}
		want := expandFrontierReference(sess, frontier)
		got := expandFrontier(nil, sess, append([]workUnit(nil), frontier...))
		if !reflect.DeepEqual(got, want) || len(got) != sess.remaining(frontier) {
			t.Fatalf("r=%d root=%b mask=%b: in-place expansion (remaining %d)\n got %v\nwant %v",
				r, sess.root, sess.pred.mask, sess.remaining(frontier), got, want)
		}
	}
}

// joinRaceOverlay is a two-peer ring caught mid-join: peer b has taken
// over the half of the ring past mid from peer a, but the first lookup
// of every key still answers a — the route a resolver learned before
// the join — and only a repeated lookup (what the routing rule does
// after a refuses a send) learns the truth. rootKey is pinned to the
// root peer throughout.
type joinRaceOverlay struct {
	dht.Overlay // Insert/Delete/Read are never called
	rootKey     dht.ID
	mid         dht.ID

	mu   sync.Mutex
	seen map[dht.ID]bool
}

func (o *joinRaceOverlay) ownerOf(key dht.ID) transport.Addr {
	switch {
	case key == o.rootKey:
		return "root"
	case dht.Between(key, 0, o.mid):
		return "a"
	}
	return "b"
}

func (o *joinRaceOverlay) Lookup(_ context.Context, key dht.ID) (transport.Addr, int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if owner := o.ownerOf(key); owner == "root" || o.seen[key] {
		return owner, 1, nil
	}
	o.seen[key] = true
	return "a", 1, nil
}

// recordingSender remembers every coalesced batch exchange that passes
// through: frames of more than one unit, not the one-unit frames a
// per-vertex send takes. It keeps requests past Send's return, so it
// copies their units: the root reuses them for its next frames
// (transport.Sender).
type recordingSender struct {
	transport.Sender
	mu      sync.Mutex
	batches []batchExchange
}

type batchExchange struct {
	to   transport.Addr
	req  msgSubQueryBatch
	resp respSubQueryBatch
}

func (r *recordingSender) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	resp, err := r.Sender.Send(ctx, to, body)
	if req, ok := body.(msgSubQueryBatch); ok && err == nil && len(req.Units) > 1 {
		req.Units = slices.Clone(req.Units)
		r.mu.Lock()
		r.batches = append(r.batches, batchExchange{to: to, req: req, resp: resp.(respSubQueryBatch)})
		r.mu.Unlock()
	}
	return resp, err
}

// TestBatchMixedOwnershipFallsBack: a msgSubQueryBatch whose receiver
// owns only some of its vertices answers errCodeNotOwner for exactly
// those it does not own (and nothing at all for the owned, empty ones),
// the root heals each of them on the per-message path — invalidate the
// stale binding, re-resolve, reach the new owner — and the search comes
// out whole: the same answer, nodes and logical messages as the
// unbatched run over the same half-joined ring, at the unbatched run's
// frame count less the frames the batch saved on the units it did
// serve.
func TestBatchMixedOwnershipFallsBack(t *testing.T) {
	const r = 6
	hasher := keyword.MustNewHasher(r, 42)
	query := keyword.NewSet("alpha")
	rootV := hasher.Vertex(query)
	mid := dht.ID(1) << 63
	objects := batchCorpus(29, 150)

	type fleet struct {
		client *Client
		rec    *recordingSender
	}
	build := func(mode BatchMode) fleet {
		net := inmem.New(1)
		t.Cleanup(func() { net.Close() })
		rec := &recordingSender{Sender: net}
		settled := &joinRaceOverlay{rootKey: VertexKey(DefaultInstance, rootV), mid: mid, seen: map[dht.ID]bool{}}
		racing := &joinRaceOverlay{rootKey: settled.rootKey, mid: mid, seen: map[dht.ID]bool{}}
		arcs := map[transport.Addr]func() (dht.ID, dht.ID, bool){
			"root": nil, // owns whatever reaches it: only the root vertex does
			"a":    func() (dht.ID, dht.ID, bool) { return 0, mid, true },
			"b":    func() (dht.ID, dht.ID, bool) { return mid, 0, true },
		}
		for addr, arc := range arcs {
			cfg := ServerConfig{Hasher: hasher, Resolver: NewOverlayResolver(settled), Sender: net, BatchWaves: mode, OwnedArc: arc}
			if addr == "root" {
				cfg.Resolver, cfg.Sender = NewOverlayResolver(racing), rec
			}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Bind(addr, srv.Handler); err != nil {
				t.Fatal(err)
			}
		}
		// The loading client knows the settled ring: every key has been
		// looked up once, so its lookups answer the truth.
		for v := hypercube.Vertex(0); v < 1<<r; v++ {
			settled.seen[VertexKey(DefaultInstance, v)] = true
		}
		client, err := NewClient(hasher, NewOverlayResolver(settled), net)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objects {
			if _, err := client.Insert(context.Background(), o); err != nil {
				t.Fatal(err)
			}
		}
		return fleet{client: client, rec: rec}
	}
	off, on := build(BatchOff), build(BatchOn)

	ctx := context.Background()
	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}
	ro, errOff := off.client.SupersetSearch(ctx, query, All, opts)
	rb, errOn := on.client.SupersetSearch(ctx, query, All, opts)
	requireSameResult(t, "alpha/All", ro, rb, errOff, errOn)
	if errOn != nil {
		t.Fatal(errOn)
	}
	if rb.Completeness != 1 || rb.FailedSubtrees != 0 {
		t.Fatalf("Completeness %g, FailedSubtrees %d: a re-homed unit was not healed", rb.Completeness, rb.FailedSubtrees)
	}
	got, want := matchIDs(rb.Matches), bruteForce(objects, query)
	if !equalStrings(got, want) {
		t.Fatalf("batched answer %v, brute force %v", got, want)
	}

	// One frame went to a, carrying every non-root unit of the subcube;
	// a refused exactly the units whose key b now owns and said nothing
	// about the empty ones it does own.
	if len(on.rec.batches) != 1 || on.rec.batches[0].to != "a" {
		t.Fatalf("batch exchanges %+v, want one frame to a", on.rec.batches)
	}
	ex := on.rec.batches[0]
	if want := 1<<uint(r-rootV.OnesCount()) - 1; len(ex.req.Units) != want {
		t.Fatalf("frame carried %d units, want %d", len(ex.req.Units), want)
	}
	hitAt := map[int]respSubUnit{}
	for _, h := range ex.resp.Hits {
		hitAt[h.Index] = h
	}
	ownedByA, refused := 0, 0
	for j, u := range ex.req.Units {
		h, hit := hitAt[j]
		if dht.Between(VertexKey(DefaultInstance, hypercube.Vertex(u.Vertex)), 0, mid) {
			ownedByA++
			if hit && (h.ErrCode != errCodeNone || len(h.Matches) == 0) {
				t.Errorf("unit %d (vertex %d) is a's: hit %+v, want matches or no hit at all", j, u.Vertex, h)
			}
		} else {
			refused++
			if !hit || h.ErrCode != errCodeNotOwner {
				t.Errorf("unit %d (vertex %d) is b's: hit %+v (present %v), want errCodeNotOwner", j, u.Vertex, h, hit)
			}
		}
	}
	if ownedByA == 0 || refused == 0 {
		t.Fatalf("a owns %d units and refused %d: the frame was not mixed, the test lost its teeth", ownedByA, refused)
	}
	// A healed unit costs the two frames it costs unbatched (the refused
	// msgSubQuery to a, then the one b answers); the units a served
	// shared the batch frame instead of taking one each.
	if want := ro.Stats.PhysFrames - ownedByA + 1; rb.Stats.PhysFrames != want {
		t.Errorf("batched PhysFrames = %d, want %d (unbatched %d, %d units served by one frame)",
			rb.Stats.PhysFrames, want, ro.Stats.PhysFrames, ownedByA)
	}
	if want := 1 + 1 + 2*refused; rb.Stats.PhysFrames != want {
		t.Errorf("batched PhysFrames = %d, want %d: T_QUERY + one batch + two per healed unit", rb.Stats.PhysFrames, want)
	}
}

// scramblingSender corrupts the hit indices of every coalesced batch
// response (a frame of more than one unit) on its way back to the root,
// leaving everything else — the one-unit frames of the per-vertex
// retries included — intact.
type scramblingSender struct {
	transport.Sender
	scramble func(hits []respSubUnit, units int)
	mu       sync.Mutex
	batches  int // batch frames that passed through
	frames   int // batch responses corrupted
	units    int // units those frames carried
}

func (s *scramblingSender) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	resp, err := s.Sender.Send(ctx, to, body)
	if req, ok := body.(msgSubQueryBatch); ok && err == nil && len(req.Units) > 1 {
		batch := resp.(respSubQueryBatch)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.batches++
		if len(batch.Hits) > 0 {
			s.scramble(batch.Hits, len(req.Units))
			s.frames++
			s.units += len(req.Units)
		}
		return batch, nil
	}
	return resp, err
}

// TestMalformedBatchIndicesFallBack: a batch response whose hit indices
// do not fit the request — out of range, repeated, or out of order —
// is nonsense as a whole, exactly like the wrong-length response of the
// dense layout was: the root retries every unit of that frame on the
// per-message path, and the search still comes out complete and equal
// to the unbatched run.
func TestMalformedBatchIndicesFallBack(t *testing.T) {
	const r, nServers = 8, 3 // three peers: v mod 3 mixes every dimension, so each peer's frame carries hits
	objects := batchCorpus(31, 160)
	query := keyword.NewSet("alpha")
	ctx := context.Background()
	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}

	off := newDeploymentMode(t, r, nServers, 0, BatchOff)
	for _, o := range objects {
		if _, err := off.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	ro, errOff := off.client.SupersetSearch(ctx, query, All, opts)

	for name, scramble := range map[string]func(hits []respSubUnit, units int){
		"out of range": func(hits []respSubUnit, units int) { hits[len(hits)-1].Index = units },
		"negative":     func(hits []respSubUnit, units int) { hits[0].Index = -1 },
		"repeated": func(hits []respSubUnit, units int) {
			if len(hits) > 1 {
				hits[1].Index = hits[0].Index
			} else {
				hits[0].Index = units
			}
		},
		"out of order": func(hits []respSubUnit, units int) {
			sort.Slice(hits, func(i, j int) bool { return hits[i].Index > hits[j].Index })
			if len(hits) == 1 {
				hits[0].Index = units
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			on := newDeploymentMode(t, r, nServers, 0, BatchOn)
			for _, o := range objects {
				if _, err := on.client.Insert(ctx, o); err != nil {
					t.Fatal(err)
				}
			}
			root := on.serverFor(on.hasher.Vertex(query))
			sender := &scramblingSender{Sender: on.net, scramble: scramble}
			root.cfg.Sender = sender

			rb, errOn := on.client.SupersetSearch(ctx, query, All, opts)
			requireSameResult(t, name, ro, rb, errOff, errOn)
			if errOn != nil {
				t.Fatal(errOn)
			}
			if rb.Completeness != 1 || !rb.Exhausted {
				t.Errorf("Completeness %g, Exhausted %v, want a complete answer", rb.Completeness, rb.Exhausted)
			}
			if sender.frames == 0 {
				t.Fatal("no batch response carried a hit to corrupt; the test lost its teeth")
			}
			// Every unit of a corrupted frame took a frame of its own —
			// the whole frame, not just the hits with bad indices.
			if want := 1 + sender.batches + sender.units; rb.Stats.PhysFrames != want {
				t.Errorf("PhysFrames = %d, want %d: T_QUERY + %d batches + %d units retried one by one",
					rb.Stats.PhysFrames, want, sender.batches, sender.units)
			}
		})
	}
}

// TestSparseBatchListsOnlyHits pins what a peer puts in a batch
// response: hits only, by increasing index — matches, matches beyond
// the window, an error code — and nothing for a unit that was owned,
// scanned and empty, whatever the frame length.
func TestSparseBatchListsOnlyHits(t *testing.T) {
	d := newDeploymentStriped(t, 8, 1, 0, BatchOn, 4)
	srv := d.servers[0]
	hub := keyword.NewSet("hub")
	for _, v := range []int{3, 40, 41, 200} {
		for j := 0; j < 3; j++ {
			if err := srv.insertEntry(DefaultInstance, hypercube.Vertex(v), keyword.NewSet("hub", "w"+strconv.Itoa(j)).Key(), "o-"+strconv.Itoa(v)+"-"+strconv.Itoa(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.insertEntry(DefaultInstance, 7, keyword.NewSet("other").Key(), "o-7"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 17, 256} {
		msg := msgSubQueryBatch{Instance: DefaultInstance, QueryKey: hub.Key(), Limit: 2}
		for v := 0; v < n; v++ {
			msg.Units = append(msg.Units, wireUnit{Vertex: uint64(v)})
		}
		resp := srv.subQueryBatch(context.Background(), msg)
		if !resp.fits(n) {
			t.Fatalf("%d units: hit indices not increasing inside the request: %+v", n, resp.Hits)
		}
		var got []int
		for _, h := range resp.Hits {
			got = append(got, h.Index)
			if len(h.Matches) != 2 || h.Remaining != 1 || h.ErrCode != errCodeNone {
				t.Errorf("%d units: unit %d = %+v, want 2 matches, 1 remaining", n, h.Index, h)
			}
		}
		var want []int
		for _, v := range []int{3, 40, 41, 200} {
			if v < n {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d units: hits at %v, want %v (vertex 7 holds a table but nothing for the query)", n, got, want)
		}
	}
}
