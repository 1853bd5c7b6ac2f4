package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
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
// context as that send fails. It records each send's destination.
type scriptedSender struct {
	script   []error
	sends    int
	to       []transport.Addr
	cancelAt int
	cancel   context.CancelFunc
}

func (s *scriptedSender) Send(_ context.Context, to transport.Addr, _ any) (any, error) {
	s.sends++
	s.to = append(s.to, to)
	if s.sends == s.cancelAt {
		s.cancel()
	}
	if s.sends <= len(s.script) {
		return nil, s.script[s.sends-1]
	}
	return "ok", nil
}

// TestSendToVertexRefusalWindow pins the routing rule as a vertex send
// meets it: the first failure — a refusal, as a handler returns it and
// as a transport flattens it, or an unreachable owner — earns a
// re-route, and so does the first unreachable owner; every other
// refusal a hint, the first at once and the rest 1/2/4/8 ms apart:
// seven sends at most. An unreachable owner gets two sends in all, and
// any other failure one. Over a plain overlay every route and every
// hint is a fresh lookup. Every send is counted in the returned frame
// count, a send given an owner goes there first, and a context
// cancelled mid-back-off ends the call at once.
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
	boom := fmt.Errorf("%w: boom", transport.ErrRemote)
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
		{"refused, then unreachable", []error{refusal, refusal, transport.ErrUnreachable}, 4, nil},
		{"refused, then unreachable twice", []error{refusal, refusal, transport.ErrUnreachable, transport.ErrUnreachable}, 4, transport.ErrUnreachable},
		{"another remote error", []error{refusal, boom}, 2, transport.ErrRemote},
		{"another remote error first", []error{boom}, 1, transport.ErrRemote},
	}
	for _, tc := range cases {
		overlay := staticOverlay(t, 4)
		sender := &scriptedSender{script: tc.script}
		resp, frames, err := NewOverlayResolver(overlay).Send(context.Background(), sender, "main", 3, "", "body")
		if frames != tc.wantSends || sender.sends != tc.wantSends {
			t.Errorf("%s: %d sends, %d frames reported, want %d", tc.name, sender.sends, frames, tc.wantSends)
		}
		if tc.wantErr == nil {
			if err != nil || resp != "ok" {
				t.Errorf("%s: resp %v, err %v, want accepted", tc.name, resp, err)
			}
		} else if !errors.Is(err, tc.wantErr) && !(tc.wantErr == ErrNotOwner && dht.Refused(err)) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.wantErr)
		}
		if got := overlay.Lookups(); got != uint64(tc.wantSends) {
			t.Errorf("%s: %d overlay lookups for %d sends", tc.name, got, tc.wantSends)
		}
	}

	// Given the owner a wave named, the first send goes there and only
	// the re-route looks up.
	overlay := staticOverlay(t, 4)
	sender := &scriptedSender{script: refusals(1)}
	if _, frames, err := NewOverlayResolver(overlay).Send(context.Background(), sender, "main", 3, "named", "body"); err != nil || frames != 2 ||
		sender.to[0] != "named" || sender.to[1] != overlay.SuccessorOf(VertexKey("main", 3)) || overlay.Lookups() != 1 {
		t.Errorf("named owner: %d frames to %v with %d lookups, err %v; want named, then the successor after one lookup",
			frames, sender.to, overlay.Lookups(), err)
	}

	// A fixed mapping has no other owner to try.
	sender = &scriptedSender{script: refusals(3)}
	route := FuncResolver(func(hypercube.Vertex) transport.Addr { return "a" })
	if _, frames, err := route.Send(context.Background(), sender, "main", 3, "", "body"); frames != 1 || !errors.Is(err, ErrNotOwner) {
		t.Errorf("FuncResolver: %d frames, err %v; want the first refusal", frames, err)
	}

	// Cancelled while the fifth send fails: the 4 ms pause that follows
	// is cut short and no sixth send goes out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender = &scriptedSender{script: refusals(12), cancelAt: 5, cancel: cancel}
	_, frames, err := NewOverlayResolver(staticOverlay(t, 4)).Send(ctx, sender, "main", 3, "", "body")
	if frames != 5 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mid-back-off: %d frames, err %v; want 5 and context.Canceled", frames, err)
	}
}

var vertexKeySink dht.ID

// BenchmarkVertexKey prices what naming a wave's owners costs per
// vertex of an r = 10 cube: "hash" derives VertexKey; "probe" reads a
// warm per-vertex binding map under one lock, the shape of the binding
// cache the route replaced; "route" is Owners on a warm 16-peer Chord
// ring — each vertex's memoised ring key, then a binary search of the
// node's arc view, which the wave reads once. Neither warm form hashes.
func BenchmarkVertexKey(b *testing.B) {
	vs := make([]hypercube.Vertex, 1024)
	for i := range vs {
		vs[i] = hypercube.Vertex(i)
	}
	addrs := make([]transport.Addr, len(vs))
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
		var mu sync.Mutex
		bindings := map[string]map[hypercube.Vertex]transport.Addr{DefaultInstance: {}}
		for _, v := range vs {
			bindings[DefaultInstance][v] = transport.Addr("peer-" + strconv.Itoa(int(v)%16))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			byVertex := bindings[DefaultInstance]
			for j, v := range vs {
				addrs[j] = byVertex[v]
			}
			mu.Unlock()
		}
		perVertex(b)
	})
	b.Run("route", func(b *testing.B) {
		net := inmem.New(1)
		defer net.Close()
		r := NewOverlayResolver(chordRing(b, net, 16, nil)[0])
		ctx := context.Background()
		if errs := r.Owners(ctx, DefaultInstance, vs, addrs); errs != nil {
			b.Fatal(errs)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Owners(ctx, DefaultInstance, vs, addrs)
		}
		perVertex(b)
	})
}
