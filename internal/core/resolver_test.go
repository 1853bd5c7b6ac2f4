package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

func staticOverlay(t testing.TB, n int) *dht.Static {
	t.Helper()
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr("static-" + strconv.Itoa(i))
	}
	s, err := dht.NewStatic(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVertexKeyDistinguishesInstances(t *testing.T) {
	a := VertexKey("main", 5)
	b := VertexKey("replica-1", 5)
	c := VertexKey("main", 6)
	if a == b || a == c {
		t.Errorf("vertex keys collide: %d %d %d", a, b, c)
	}
	if a != VertexKey("main", 5) {
		t.Error("VertexKey not deterministic")
	}
}

func TestOverlayResolverCachesBindings(t *testing.T) {
	overlay := staticOverlay(t, 8)
	r := NewOverlayResolver(overlay)
	ctx := context.Background()

	addr1, err := r.Resolve(ctx, "main", 3)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	before := overlay.Lookups()
	addr2, err := r.Resolve(ctx, "main", 3)
	if err != nil || addr2 != addr1 {
		t.Fatalf("cached Resolve = %s, %v", addr2, err)
	}
	if overlay.Lookups() != before {
		t.Error("cached resolve still hit the overlay")
	}
	if r.CacheSize() != 1 {
		t.Errorf("CacheSize = %d", r.CacheSize())
	}

	// Different instances resolve (and cache) independently.
	if _, err := r.Resolve(ctx, "replica-1", 3); err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != 2 {
		t.Errorf("CacheSize after second instance = %d", r.CacheSize())
	}

	r.Invalidate("main", 3)
	if r.CacheSize() != 1 {
		t.Errorf("CacheSize after invalidate = %d", r.CacheSize())
	}
	if _, err := r.Resolve(ctx, "main", 3); err != nil {
		t.Fatal(err)
	}
	if overlay.Lookups() <= before {
		t.Error("invalidated binding did not re-resolve")
	}
}

func TestReplicatedAccessors(t *testing.T) {
	_, _, rep, clients := newReplicatedDeployment(t, 6, 2)
	if rep.Fanout() != 2 {
		t.Errorf("Fanout = %d", rep.Fanout())
	}
	if rep.Primary() != clients[0] {
		t.Error("Primary mismatch")
	}
	if rep.Replica(1) != clients[1] || rep.Replica(2) != nil || rep.Replica(-1) != nil {
		t.Error("Replica accessor wrong")
	}
}

func TestClientAccessors(t *testing.T) {
	d := newDeployment(t, 8, 1, 0)
	if d.client.Hasher().Dim() != 8 {
		t.Errorf("Hasher dim = %d", d.client.Hasher().Dim())
	}
	if d.client.Instance() != DefaultInstance {
		t.Errorf("Instance = %q", d.client.Instance())
	}
	addr, err := d.client.ResolveRoot(context.Background(), keyword.NewSet("x"))
	if err != nil || addr == "" {
		t.Errorf("ResolveRoot = %q, %v", addr, err)
	}
	if _, err := NewInstanceClient("x", keyword.MustNewHasher(4, 0), nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

// scriptedSender fails its first len(script) sends with the scripted
// errors, then accepts; cancelAt, when positive, cancels the caller's
// context as that send fails.
type scriptedSender struct {
	script   []error
	sends    int
	cancelAt int
	cancel   context.CancelFunc
}

func (s *scriptedSender) Send(context.Context, transport.Addr, any) (any, error) {
	s.sends++
	if s.sends == s.cancelAt {
		s.cancel()
	}
	if s.sends <= len(s.script) {
		return nil, s.script[s.sends-1]
	}
	return "ok", nil
}

// TestSendToVertexRefusalWindow pins the one retry rule of
// sendToVertex: every failure earns one re-resolution, an ownership
// refusal — as a handler returns it and as a transport flattens it —
// up to five more behind a 1/2/4/8/16 ms back-off, a transport failure
// none; every send is counted in the returned frame count, and a
// context cancelled mid-back-off ends the call at once.
func TestSendToVertexRefusalWindow(t *testing.T) {
	refusal := fmt.Errorf("%w: %v", transport.ErrRemote, ErrNotOwner)
	refusals := func(n int) []error {
		script := make([]error, n)
		for i := range script {
			script[i] = refusal
		}
		script[0] = ErrNotOwner // an in-process transport hands the sentinel over unflattened
		return script
	}
	cases := []struct {
		name      string
		script    []error
		wantSends int
		wantErr   error // nil: accepted
	}{
		{"accepted at once", nil, 1, nil},
		{"one refusal", refusals(1), 2, nil},
		{"six refusals", refusals(6), 7, nil},
		{"seven refusals", refusals(7), 7, ErrNotOwner},
		{"twelve refusals", refusals(12), 7, ErrNotOwner},
		{"unreachable twice", []error{transport.ErrUnreachable, transport.ErrUnreachable, nil}, 2, transport.ErrUnreachable},
		{"unreachable then fine", []error{transport.ErrUnreachable}, 2, nil},
		{"refused, then unreachable", []error{refusal, refusal, transport.ErrUnreachable}, 3, transport.ErrUnreachable},
		{"another remote error", []error{refusal, fmt.Errorf("%w: boom", transport.ErrRemote)}, 2, transport.ErrRemote},
	}
	for _, tc := range cases {
		overlay := staticOverlay(t, 4)
		sender := &scriptedSender{script: tc.script}
		resp, frames, err := sendToVertex(context.Background(), NewOverlayResolver(overlay), sender, "main", 3, "body")
		if frames != tc.wantSends || sender.sends != tc.wantSends {
			t.Errorf("%s: %d sends, %d frames reported, want %d", tc.name, sender.sends, frames, tc.wantSends)
		}
		if tc.wantErr == nil {
			if err != nil || resp != "ok" {
				t.Errorf("%s: resp %v, err %v, want accepted", tc.name, resp, err)
			}
		} else if !errors.Is(err, tc.wantErr) && !(tc.wantErr == ErrNotOwner && refusedOwnership(err)) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.wantErr)
		}
		// Each send after the first went through a fresh lookup.
		if got := overlay.Lookups(); got != uint64(tc.wantSends) {
			t.Errorf("%s: %d overlay lookups for %d sends", tc.name, got, tc.wantSends)
		}
	}

	// A resolver that cannot invalidate has nothing new to learn.
	sender := &scriptedSender{script: refusals(3)}
	route := FuncResolver(func(hypercube.Vertex) transport.Addr { return "a" })
	if _, frames, err := sendToVertex(context.Background(), route, sender, "main", 3, "body"); frames != 1 || !errors.Is(err, ErrNotOwner) {
		t.Errorf("FuncResolver: %d frames, err %v; want the first refusal", frames, err)
	}

	// Cancelled while the fifth send fails: the 8 ms pause that follows
	// is cut short and no sixth send goes out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender = &scriptedSender{script: refusals(12), cancelAt: 5, cancel: cancel}
	_, frames, err := sendToVertex(ctx, NewOverlayResolver(staticOverlay(t, 4)), sender, "main", 3, "body")
	if frames != 5 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mid-back-off: %d frames, err %v; want 5 and context.Canceled", frames, err)
	}
}

var vertexKeySink dht.ID

// BenchmarkVertexKey prices a vertex's ring key against its cached
// binding, per vertex of an r = 10 cube: "hash" derives VertexKey,
// "probe" reads the warm binding through ResolveBatch, the resolver's
// map probe. A route that hashed every wave vertex to find its arc
// would pay the first where the binding cache pays the second
// (ROADMAP item 16).
func BenchmarkVertexKey(b *testing.B) {
	vs := make([]hypercube.Vertex, 1024)
	for i := range vs {
		vs[i] = hypercube.Vertex(i)
	}
	perVertex := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/vertex")
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vs {
				vertexKeySink = VertexKey(DefaultInstance, v)
			}
		}
		perVertex(b)
	})
	b.Run("probe", func(b *testing.B) {
		r := NewOverlayResolver(staticOverlay(b, 16))
		addrs := make([]transport.Addr, len(vs))
		ctx := context.Background()
		if errs := r.ResolveBatch(ctx, DefaultInstance, vs, addrs); errs != nil {
			b.Fatal(errs)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ResolveBatch(ctx, DefaultInstance, vs, addrs)
		}
		perVertex(b)
	})
}
