package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

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
// ErrNotOwner: visit re-resolves before every further send, returns the
// hit the third send gets after two refusals, and after seven refusals
// gives up at maxOwnerSends with the refusal.
func TestVisitRefusedUnitRetries(t *testing.T) {
	want := []Match{{ObjectID: "o1", SetKey: "a b", Vertex: 3, Depth: 1}}
	for _, tc := range []struct {
		name      string
		refusals  int
		wantSends int
	}{
		{"two refusals", 2, 3},
		{"seven refusals", 7, maxOwnerSends},
	} {
		overlay := staticOverlay(t, 4)
		sender := &refusingUnitSender{refusals: tc.refusals, hit: respSubUnit{Matches: want, Remaining: 2}}
		srv, err := NewServer(ServerConfig{Hasher: keyword.MustNewHasher(4, 42), Resolver: NewOverlayResolver(overlay), Sender: sender})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		sess := &session{instance: DefaultInstance, root: 1, pred: predFor(ClassSuperset, "a")}
		hit := srv.visit(context.Background(), sess, workUnit{vertex: 3}, All)
		if hit.frames != tc.wantSends || sender.sends != tc.wantSends {
			t.Errorf("%s: %d sends, %d frames counted, want %d", tc.name, sender.sends, hit.frames, tc.wantSends)
		}
		if got := overlay.Lookups(); got != uint64(tc.wantSends) {
			t.Errorf("%s: %d overlay lookups for %d sends, want a fresh one before each", tc.name, got, tc.wantSends)
		}
		if tc.refusals < maxOwnerSends {
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
