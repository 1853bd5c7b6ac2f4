package chord

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/leakcheck"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// addrBetween returns an unused address whose ring ID lies in the open
// arc (from, to).
func addrBetween(t *testing.T, from, to dht.ID) transport.Addr {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		addr := transport.Addr(fmt.Sprintf("joiner-%d", i))
		if dht.BetweenOpen(dht.HashString(string(addr)), from, to) {
			return addr
		}
	}
	t.Fatalf("no address hashes into (%d, %d)", from, to)
	return ""
}

// objectIn returns an object ID whose key lies in (from, to].
func objectIn(t *testing.T, from, to dht.ID) string {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		id := fmt.Sprintf("obj-%d", i)
		if dht.Between(dht.HashString(id), from, to) {
			return id
		}
	}
	t.Fatalf("no object key in (%d, %d]", from, to)
	return ""
}

// TestStaleRouteInsertLandsAtJoiner: J joins between P and S, and P
// inserts a reference for a key in (P, J] before it stabilizes — so P
// still routes the key to S. S refuses it (its predecessor is now J),
// and the insert follows S's predecessor to J. Once the ring has
// converged every node reads the reference from J. Without the owner
// check S stored it, and a Read routed to J came back empty.
func TestStaleRouteInsertLandsAtJoiner(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()
	nodes := buildRing(t, net, 4)
	reg := telemetry.New(4)
	p, s := nodes[0], nodes[1]
	p.met = newNodeMetrics(reg)

	jAddr := addrBetween(t, p.ID(), s.ID())
	j := New(jAddr, net, Config{})
	if _, err := net.Bind(jAddr, j.Handler); err != nil {
		t.Fatal(err)
	}
	if err := j.Join(ctx, s.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := p.Successor(); got.ID != s.ID() {
		t.Fatalf("P's successor moved to %s before P stabilized", got.Addr)
	}

	id := objectIn(t, p.ID(), j.ID())
	ref := dht.Reference{ObjectID: id, Holder: "h", Location: "/"}
	if _, err := p.Insert(ctx, ref); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	all := append([]*Node{j}, nodes...)
	converge(ctx, all)
	for _, n := range all {
		refs, err := n.Read(ctx, id)
		if err != nil || len(refs) != 1 || refs[0] != ref {
			t.Fatalf("Read %s via %s = %v, %v; want [%v] (J holds %d objects, S %d)",
				id, n.Addr(), refs, err, ref, j.RefCount(), s.RefCount())
		}
	}
	if j.RefCount() != 1 || s.RefCount() != 0 {
		t.Errorf("J holds %d objects and S %d, want 1 and 0", j.RefCount(), s.RefCount())
	}
	// S refused the table's route and then the lookup's.
	if got := reg.Snapshot().Counters[`chord_ref_refusals_total{op="insert"}`]; got != 2 {
		t.Errorf("chord_ref_refusals_total{op=\"insert\"} = %d, want 2", got)
	}
}

// TestInsertAfterLeaveFollowsSuccessor: L has left, but its
// predecessor P never heard (the depart to P was lost), so P still
// routes L's old arc to L. L refuses a key of that arc although the key
// lies in it — a node that left owns nothing — and the insert follows
// L's successor S, which took the arc over. Without the owner check the
// reference went to L and was lost with it.
func TestInsertAfterLeaveFollowsSuccessor(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()
	nodes := buildRing(t, net, 4)
	reg := telemetry.New(4)
	p, l, s := nodes[0], nodes[1], nodes[2]
	p.met = newNodeMetrics(reg)

	net.Block("", p.Addr(), true) // chord sends carry no sender address
	if _, err := l.Leave(ctx); err == nil {
		t.Fatal("Leave reached P through the block")
	}
	net.Block("", p.Addr(), false)
	if got := p.Successor(); got.ID != l.ID() {
		t.Fatalf("P's successor is %s, want the departed L", got.Addr)
	}

	id := objectIn(t, p.ID(), l.ID())
	ref := dht.Reference{ObjectID: id, Holder: "h", Location: "/"}
	if _, err := p.Insert(ctx, ref); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	net.SetDown(l.Addr(), true)
	alive := []*Node{p, s, nodes[3]}
	converge(ctx, alive)
	for _, n := range alive {
		if refs, err := n.Read(ctx, id); err != nil || len(refs) != 1 || refs[0] != ref {
			t.Fatalf("Read %s via %s = %v, %v; want [%v]", id, n.Addr(), refs, err, ref)
		}
	}
	// L refused the table's route and then the lookup's.
	if got := reg.Snapshot().Counters[`chord_ref_refusals_total{op="insert"}`]; got != 2 {
		t.Errorf("chord_ref_refusals_total{op=\"insert\"} = %d, want 2", got)
	}
}

// TestRouteInDoubtSendsOnce: a send in doubt may have been handled, so
// the rule drops its node as unreachable and returns the error after
// that one send. A plain unreachable node is dropped too, and the key is
// routed again.
func TestRouteInDoubtSendsOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		err       error
		wantSends int
	}{
		{"in doubt", fmt.Errorf("send: %w", transport.ErrInDoubt), 1},
		{"unreachable", fmt.Errorf("send: %w", transport.ErrUnreachable), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := inmem.New(1)
			defer net.Close()
			nodes := buildRing(t, net, 4)
			p, s := nodes[0], nodes[1]
			if to, ok := p.arcOwner(s.ID()); !ok || to.Addr != s.Addr() {
				t.Fatalf("P's routing state names %v for S's key, want S", to)
			}
			var calls []transport.Addr
			_, sends, err := NewRouter(p).Route(context.Background(), s.ID(), "", func(_ context.Context, to transport.Addr) (any, error) {
				calls = append(calls, to)
				if len(calls) == 1 {
					return nil, tc.err
				}
				return respOK{}, nil
			})
			if sends != tc.wantSends || len(calls) != tc.wantSends {
				t.Errorf("Route made %d sends (%v), reported %d; want %d", len(calls), calls, sends, tc.wantSends)
			}
			if calls[0] != s.Addr() {
				t.Errorf("first send went to %s, want S", calls[0])
			}
			if tc.wantSends > 1 {
				if err != nil {
					t.Errorf("Route = %v, want the re-routed send's answer", err)
				}
				return
			}
			if !errors.Is(err, transport.ErrInDoubt) {
				t.Errorf("Route = %v, want the send's ErrInDoubt", err)
			}
			if to, ok := p.arcOwner(s.ID()); ok && to.Addr == s.Addr() {
				t.Error("P still routes S's key to S after an in-doubt send")
			}
			if p.Successor().Addr == s.Addr() {
				t.Error("P kept S as its successor after an in-doubt send")
			}
		})
	}
}

// growRing is buildRing for large rings: each join is followed by two
// stabilize rounds rather than a full convergence, and the ring
// converges once at the end.
func growRing(t *testing.T, net *inmem.Network, n int) []*Node {
	t.Helper()
	ctx := context.Background()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, addRingNode(t, net, nodes))
		for round := 0; round < 2; round++ {
			for _, m := range nodes {
				_ = m.StabilizeOnce(ctx)
			}
		}
	}
	converge(ctx, nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	return nodes
}

// TestArcTableMatchesFindSuccessor: on a converged ring that every
// node has looked up each member's ID on — one key in each member's
// arc, which replaces whatever the ring's growth left stale — every
// node's arc table names the owner of any key, and it is the node the
// iterative lookup finds and the key's successor in sorted membership.
func TestArcTableMatchesFindSuccessor(t *testing.T) {
	for _, size := range []int{8, 16, 64} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			net := inmem.New(1)
			defer net.Close()
			ctx := context.Background()
			nodes := growRing(t, net, size)
			checkRing(t, nodes)
			for _, src := range nodes {
				for _, m := range nodes {
					if got, _, err := src.FindSuccessor(ctx, m.ID()); err != nil || got.ID != m.ID() {
						t.Fatalf("FindSuccessor(%s) from %s = %s, %v", m.Addr(), src.Addr(), got.Addr, err)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(size)))
			for trial := 0; trial < 10000; trial++ {
				id := dht.ID(rng.Uint64())
				idx := sort.Search(len(nodes), func(i int) bool { return nodes[i].ID() >= id })
				want := nodes[idx%len(nodes)].Info()
				src := nodes[rng.Intn(len(nodes))]
				if got, ok := src.arcOwner(id); !ok || got != want {
					t.Fatalf("arc table of %s names %s (found %v) for %d, want %s", src.Addr(), got.Addr, ok, id, want.Addr)
				}
				if got, _, err := src.FindSuccessor(ctx, id); err != nil || got != want {
					t.Fatalf("FindSuccessor(%d) from %s = %s, %v; want %s", id, src.Addr(), got.Addr, err, want.Addr)
				}
			}
		})
	}
}

// TestArcTableBounded: the table is keyed by remote answers, so however
// many distinct and overlapping arcs one node is fed, it holds at most
// maxArcs, none of which overlap.
func TestArcTableBounded(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	n := New("bounded", net, Config{})
	rng := rand.New(rand.NewSource(36))
	learn := func(from, to dht.ID) {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.learnArcLocked(from, NodeInfo{ID: to, Addr: transport.Addr(fmt.Sprint("n-", to))})
		if len(n.arcs) > maxArcs {
			t.Fatalf("arc table holds %d arcs, cap %d", len(n.arcs), maxArcs)
		}
		for i, a := range n.arcs {
			for _, b := range n.arcs[i+1:] {
				if a.overlaps(b) {
					t.Fatalf("arcs (%d, %d] and (%d, %d] overlap", a.from, a.node.ID, b.from, b.node.ID)
				}
			}
		}
	}
	// Disjoint arcs partitioning the ring, four times the cap.
	const parts = 4 * maxArcs
	step := ^dht.ID(0)/parts + 1
	for i := dht.ID(0); i < parts; i++ {
		learn(i*step, i*step+step/2)
	}
	if len(n.arcs) != maxArcs {
		t.Fatalf("after %d disjoint arcs the table holds %d, want the cap %d", parts, len(n.arcs), maxArcs)
	}
	// Random, mostly overlapping arcs, some of them wrapping.
	for i := 0; i < 4*maxArcs; i++ {
		from := dht.ID(rng.Uint64())
		learn(from, from+dht.ID(rng.Uint64()>>uint(rng.Intn(64))))
	}
}
