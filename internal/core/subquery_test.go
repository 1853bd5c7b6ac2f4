package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// refusingUnitSender answers the first refusals one-unit sub-query
// frames by refusing their unit, and every later one with hit.
type refusingUnitSender struct {
	refusals, sends int
	hit             respSubUnit
}

func (s *refusingUnitSender) Send(_ context.Context, _ transport.Addr, body any) (any, error) {
	if msg, ok := body.(msgSubQueryBatch); !ok || len(msg.Units) != 1 {
		return nil, errors.New("not a one-unit sub-query")
	}
	if s.sends++; s.sends <= s.refusals {
		return respSubQueryBatch{Hits: []respSubUnit{{ErrCode: errCodeNotOwner}}}, nil
	}
	return respSubQueryBatch{Hits: []respSubUnit{s.hit}}, nil
}

// TestVisitRefusedUnitRetries: a one-unit frame whose unit comes back
// errCodeNotOwner is an ownership refusal like a frame-level
// ErrNotOwner: visit routes on by the routing rule — over a plain
// overlay a fresh lookup names every next owner, one before each send —
// returns the hit the third send gets after two refusals, and after
// seven refusals gives up at the rule's seven sends with the refusal.
func TestVisitRefusedUnitRetries(t *testing.T) {
	want := []Match{{ObjectID: "o1", SetKey: "a b", Vertex: 3, Depth: 1}}
	const maxSends = 7
	for _, tc := range []struct {
		name      string
		refusals  int
		wantSends int
	}{
		{"two refusals", 2, 3},
		{"seven refusals", 7, maxSends},
	} {
		overlay := staticOverlay(t, 4)
		sender := &refusingUnitSender{refusals: tc.refusals, hit: respSubUnit{Matches: want, Remaining: 2}}
		srv, err := NewServer(ServerConfig{Hasher: keyword.MustNewHasher(4, 42), Resolver: NewOverlayResolver(overlay), Sender: sender})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		sess := &session{instance: DefaultInstance, root: 1, pred: predFor(ClassSuperset, "a")}
		hit := srv.visit(context.Background(), sess, workUnit{vertex: 3}, All, "")
		if hit.frames != tc.wantSends || sender.sends != tc.wantSends {
			t.Errorf("%s: %d sends, %d frames counted, want %d", tc.name, sender.sends, hit.frames, tc.wantSends)
		}
		if got := overlay.Lookups(); got != uint64(tc.wantSends) {
			t.Errorf("%s: %d overlay lookups for %d sends, want a fresh one before each", tc.name, got, tc.wantSends)
		}
		if tc.refusals < maxSends {
			if hit.err != nil || !reflect.DeepEqual(hit.matches, want) || hit.remaining != 2 {
				t.Errorf("%s: hit %+v, want the third send's answer", tc.name, hit)
			}
		} else if !errors.Is(hit.err, ErrNotOwner) {
			t.Errorf("%s: err %v, want the refusal", tc.name, hit.err)
		}
	}
}

// deadlineRecorder notes the deadline of every sub-query frame that
// passes through.
type deadlineRecorder struct {
	transport.Sender
	mu        sync.Mutex
	deadlines []int64
}

func (r *deadlineRecorder) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	if msg, ok := body.(msgSubQueryBatch); ok {
		r.mu.Lock()
		r.deadlines = append(r.deadlines, msg.DeadlineUnixNano)
		r.mu.Unlock()
	}
	return r.Sender.Send(ctx, to, body)
}

// TestPerVertexFramesCarryDeadline: with batching off every vertex is
// its own one-unit frame, and each carries the search's deadline, so a
// peer whose transport context knows none (tcpnet) still stops work for
// an expired search; such a frame is answered errCodeCancelled without
// a scan.
func TestPerVertexFramesCarryDeadline(t *testing.T) {
	d := newDeploymentMode(t, 6, 4, 0, BatchOff)
	objects := batchCorpus(7, 60)
	for _, o := range objects {
		if _, err := d.client.Insert(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	query := keyword.NewSet("alpha")
	root := d.serverFor(d.hasher.Vertex(query))
	rec := &deadlineRecorder{Sender: root.cfg.Sender}
	root.cfg.Sender = rec

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dl, _ := ctx.Deadline()
	if _, err := d.client.SupersetSearch(ctx, query, All, SearchOptions{Order: ParallelLevels, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if len(rec.deadlines) == 0 {
		t.Fatal("no sub-query frame left the root")
	}
	for i, got := range rec.deadlines {
		if got != dl.UnixNano() {
			t.Fatalf("frame %d of %d carried deadline %d, want %d", i, len(rec.deadlines), got, dl.UnixNano())
		}
	}

	// An expired one-unit frame is not scanned; without the deadline the
	// same frame finds the vertex's entry.
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	srv := newMigrateServer(t, net, "", MigrationConfig{})
	key := keyword.NewSet("a").Key()
	if err := srv.insertEntry(DefaultInstance, 1, key, "o1"); err != nil {
		t.Fatal(err)
	}
	frame := msgSubQueryBatch{Instance: DefaultInstance, Root: 1, QueryKey: key, Limit: -1, Units: []wireUnit{{Vertex: 1}}}
	raw, err := srv.Handler(context.Background(), "", frame)
	if resp, _ := raw.(respSubQueryBatch); err != nil || len(resp.Hits) != 1 || len(resp.Hits[0].Matches) != 1 {
		t.Fatalf("live frame answered %+v, %v; want the vertex's one entry", raw, err)
	}
	frame.DeadlineUnixNano = time.Now().Add(-time.Second).UnixNano()
	raw, err = srv.Handler(context.Background(), "", frame)
	want := respSubQueryBatch{Hits: []respSubUnit{{Index: 0, ErrCode: errCodeCancelled}}}
	if err != nil || !reflect.DeepEqual(raw, want) {
		t.Fatalf("expired frame answered %+v, %v; want %+v", raw, err, want)
	}
}

// frameTestServer is a single peer owning every vertex of an r = 6
// cube, with a table at each that matches nothing for the query key
// "a", and the 64-unit frame that asks all of them for it.
func frameTestServer(t *testing.T) (*Server, msgSubQueryBatch) {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	srv := newMigrateServer(t, net, "", MigrationConfig{})
	units := make([]wireUnit, 64)
	for v := range units {
		units[v].Vertex = uint64(v)
		if err := srv.insertEntry(DefaultInstance, hypercube.Vertex(v), keyword.NewSet("b", strconv.Itoa(v)).Key(), "miss-"+strconv.Itoa(v)); err != nil {
			t.Fatal(err)
		}
	}
	return srv, msgSubQueryBatch{Instance: DefaultInstance, QueryKey: "a", Limit: -1, Units: units}
}

// addHit gives vertex v of srv n entries matching the query "a".
func addHit(t *testing.T, srv *Server, v, n int) {
	t.Helper()
	for j := 0; j < n; j++ {
		if err := srv.insertEntry(DefaultInstance, hypercube.Vertex(v), keyword.NewSet("a", "x"+strconv.Itoa(j)).Key(), fmt.Sprintf("o-%d-%d", v, j)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubQueryFrameAllocs: a serving peer answers a 64-unit frame in a
// fixed number of allocations, whatever its hits and their matches —
// none when no unit has anything to say, and otherwise two: the
// exactly-sized hit list and the one match arena its hits window
// (frameScratch.reply). Hits or matches grown unit by unit, a slice
// per scanned vertex, or a predicate parsed per frame make the count
// follow the hits.
func TestSubQueryFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; make alloc-smoke runs this without it")
	}
	srv, frame := frameTestServer(t)
	ctx := context.Background()
	hits := 0
	for _, k := range []int{0, 1, 8} {
		for ; hits < k; hits++ {
			addHit(t, srv, 7*hits+3, hits+1)
		}
		var resp respSubQueryBatch
		allocs := testing.AllocsPerRun(100, func() { resp = srv.subQueryBatch(ctx, frame) })
		if len(resp.Hits) != k {
			t.Fatalf("%d hits answered, want %d", len(resp.Hits), k)
		}
		want := 2.0
		if k == 0 {
			want = 0
		}
		if allocs != want {
			t.Errorf("a frame with %d hits costs %.0f allocations, want %.0f", k, allocs, want)
		}
	}
}

// TestSubQueryHitsDoNotAlias: the hits of one reply window one match
// arena, each capped at its own end, so appending to one hit's matches
// cannot overwrite the next hit's.
func TestSubQueryHitsDoNotAlias(t *testing.T) {
	srv, frame := frameTestServer(t)
	addHit(t, srv, 5, 2)
	addHit(t, srv, 9, 3)
	resp := srv.subQueryBatch(context.Background(), frame)
	if len(resp.Hits) != 2 || len(resp.Hits[0].Matches) != 2 || len(resp.Hits[1].Matches) != 3 {
		t.Fatalf("reply %+v, want hits of 2 and 3 matches", resp.Hits)
	}
	next := slices.Clone(resp.Hits[1].Matches)
	_ = append(resp.Hits[0].Matches, Match{ObjectID: "scribble"})
	if !reflect.DeepEqual(resp.Hits[1].Matches, next) {
		t.Fatalf("appending to hit 0 overwrote hit 1: %+v, want %+v", resp.Hits[1].Matches, next)
	}
}
