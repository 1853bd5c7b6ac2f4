package chord

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// buildRing constructs an n-node converged ring on an in-memory
// network and returns the nodes sorted by ring ID.
func buildRing(t *testing.T, net *inmem.Network, n int) []*Node {
	t.Helper()
	ctx := context.Background()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, addRingNode(t, net, nodes))
		// Let the ring converge after each join.
		converge(ctx, nodes)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	return nodes
}

// addRingNode binds node chord-<len(nodes)> and creates the ring with
// it, or joins it through nodes[0].
func addRingNode(t *testing.T, net *inmem.Network, nodes []*Node) *Node {
	t.Helper()
	addr := transport.Addr(fmt.Sprintf("chord-%d", len(nodes)))
	node := New(addr, net, Config{})
	if _, err := net.Bind(addr, node.Handler); err != nil {
		t.Fatalf("bind %s: %v", addr, err)
	}
	if len(nodes) == 0 {
		node.Create()
	} else if err := node.Join(context.Background(), nodes[0].Addr()); err != nil {
		t.Fatalf("join %s: %v", addr, err)
	}
	return node
}

func converge(ctx context.Context, nodes []*Node) {
	for round := 0; round < 3*len(nodes)+3; round++ {
		for _, n := range nodes {
			n.CheckPredecessorOnce(ctx)
			_ = n.StabilizeOnce(ctx)
		}
	}
	for _, n := range nodes {
		_ = n.FixAllFingers(ctx)
	}
}

// checkRing asserts that successor pointers form the sorted cycle.
func checkRing(t *testing.T, nodes []*Node) {
	t.Helper()
	for i, n := range nodes {
		want := nodes[(i+1)%len(nodes)]
		if got := n.Successor(); got.ID != want.ID() {
			t.Fatalf("node %s successor = %d, want %d", n.Addr(), got.ID, want.ID())
		}
		wantPred := nodes[(i-1+len(nodes))%len(nodes)]
		if got := n.Predecessor(); got.ID != wantPred.ID() {
			t.Fatalf("node %s predecessor = %d, want %d", n.Addr(), got.ID, wantPred.ID())
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	node := New("solo", net, Config{})
	if _, err := net.Bind("solo", node.Handler); err != nil {
		t.Fatal(err)
	}
	node.Create()
	ctx := context.Background()
	addr, _, err := node.Lookup(ctx, 12345)
	if err != nil || addr != "solo" {
		t.Fatalf("Lookup = %s, %v", addr, err)
	}
	ref := dht.Reference{ObjectID: "o1", Holder: "solo", Location: "/x"}
	if _, err := node.Insert(ctx, ref); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	refs, err := node.Read(ctx, "o1")
	if err != nil || len(refs) != 1 {
		t.Fatalf("Read = %v, %v", refs, err)
	}
}

// TestSuccessorChangeHook: the hook fires when the immediate successor
// moves to a different live node — and only then. The index layer
// hangs migration triggers off it, so a missed fire means permanently
// invisible entries and a spurious fire means wasted pulls.
func TestSuccessorChangeHook(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()

	a := New("hook-a", net, Config{})
	if _, err := net.Bind("hook-a", a.Handler); err != nil {
		t.Fatal(err)
	}
	changes := make(chan NodeInfo, 16)
	a.OnSuccessorChange(func(succ NodeInfo) { changes <- succ })
	a.Create()

	b := New("hook-b", net, Config{})
	if _, err := net.Bind("hook-b", b.Handler); err != nil {
		t.Fatal(err)
	}
	if err := b.Join(ctx, a.Addr()); err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{a, b}
	converge(ctx, nodes)

	select {
	case got := <-changes:
		if got.ID != b.ID() {
			t.Fatalf("hook fired with %d, want %d", got.ID, b.ID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor-change hook never fired after a second node joined")
	}
	// Self-successor transitions (Create, singleton heal) must not fire,
	// and re-adopting the same successor on every stabilize round must
	// not re-fire: drain anything already queued, stabilize more, and
	// expect silence.
	for {
		select {
		case got := <-changes:
			if got.ID == a.ID() {
				t.Fatalf("hook fired with self")
			}
			continue
		default:
		}
		break
	}
	converge(ctx, nodes)
	select {
	case got := <-changes:
		t.Fatalf("hook re-fired with %d for an unchanged successor", got.ID)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestLookupBeforeJoinFails(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	node := New("lonely", net, Config{})
	if _, _, err := node.Lookup(context.Background(), 1); !errors.Is(err, dht.ErrNotJoined) {
		t.Errorf("Lookup before join: %v", err)
	}
}

func TestRingConvergence(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 8)
	checkRing(t, nodes)
}

func TestLookupFindsSuccessorFromEveryNode(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 10)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		id := dht.ID(rng.Uint64())
		// Expected owner: first node with ID >= id (wrapping).
		idx := sort.Search(len(nodes), func(i int) bool { return nodes[i].ID() >= id })
		if idx == len(nodes) {
			idx = 0
		}
		want := nodes[idx].Addr()
		src := nodes[rng.Intn(len(nodes))]
		got, _, err := src.Lookup(ctx, id)
		if err != nil {
			t.Fatalf("Lookup(%d) from %s: %v", id, src.Addr(), err)
		}
		if got != want {
			t.Fatalf("Lookup(%d) from %s = %s, want %s", id, src.Addr(), got, want)
		}
	}
}

func TestLookupHopCountLogarithmic(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 32)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	maxHops := 0
	for trial := 0; trial < 200; trial++ {
		src := nodes[rng.Intn(len(nodes))]
		_, hops, err := src.Lookup(ctx, dht.ID(rng.Uint64()))
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	// With 32 nodes and correct fingers, lookups should take well
	// under 32 hops (expected O(log n) ≈ 5).
	if maxHops > 16 {
		t.Errorf("max hops = %d, want ≤ 16 with converged fingers", maxHops)
	}
}

func TestReferenceLifecycleAcrossRing(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 6)
	ctx := context.Background()

	ref := dht.Reference{ObjectID: "video-42", Holder: "peer-9", Location: "/files/video"}
	if _, err := nodes[0].Insert(ctx, ref); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Readable from any node.
	for _, n := range nodes {
		refs, err := n.Read(ctx, "video-42")
		if err != nil || len(refs) != 1 || refs[0] != ref {
			t.Fatalf("Read from %s = %v, %v", n.Addr(), refs, err)
		}
	}
	// Second replica.
	ref2 := dht.Reference{ObjectID: "video-42", Holder: "peer-10", Location: "/dl/video"}
	if _, err := nodes[3].Insert(ctx, ref2); err != nil {
		t.Fatalf("Insert replica: %v", err)
	}
	remaining, err := nodes[5].Delete(ctx, ref)
	if err != nil || remaining != 1 {
		t.Fatalf("Delete = %d, %v; want 1 remaining", remaining, err)
	}
	remaining, err = nodes[2].Delete(ctx, ref2)
	if err != nil || remaining != 0 {
		t.Fatalf("Delete last = %d, %v", remaining, err)
	}
	if _, err := nodes[1].Read(ctx, "video-42"); !errors.Is(err, dht.ErrNoSuchObject) {
		t.Errorf("Read after delete: %v", err)
	}
	if _, err := nodes[1].Delete(ctx, ref); !errors.Is(err, dht.ErrNoSuchReference) {
		t.Errorf("Delete missing: %v", err)
	}
}

// TestReadReturnsHoldersSorted: Read on either overlay returns an
// object's references sorted by (Holder, Location) — the same order on
// every call, whatever order the holders published in.
func TestReadReturnsHoldersSorted(t *testing.T) {
	want := []dht.Reference{
		{ObjectID: "shared", Holder: "peer-a", Location: "/1"},
		{ObjectID: "shared", Holder: "peer-a", Location: "/2"},
		{ObjectID: "shared", Holder: "peer-b", Location: "/0"},
		{ObjectID: "shared", Holder: "peer-b", Location: "/1"},
		{ObjectID: "shared", Holder: "peer-c", Location: "/0"},
	}
	net := inmem.New(1)
	defer net.Close()
	ring := buildRing(t, net, 3)
	static, err := dht.NewStatic([]transport.Addr{"s-0", "s-1", "s-2"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, o := range []dht.Overlay{ring[1], static} {
		name := fmt.Sprintf("%T", o)
		for _, i := range rand.New(rand.NewSource(5)).Perm(len(want)) {
			if _, err := o.Insert(ctx, want[i]); err != nil {
				t.Fatalf("%s: Insert: %v", name, err)
			}
		}
		for read := 0; read < 50; read++ {
			got, err := o.Read(ctx, "shared")
			if err != nil {
				t.Fatalf("%s: Read: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: read %d = %v, want %v", name, read, got, want)
			}
		}
	}
}

func TestJoinHandsOffReferences(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()

	first := New("seed", net, Config{})
	net.Bind("seed", first.Handler)
	first.Create()

	// Insert many objects into the single-node ring.
	const objects = 200
	for i := 0; i < objects; i++ {
		ref := dht.Reference{ObjectID: fmt.Sprintf("obj-%d", i), Holder: "h", Location: "/"}
		if _, err := first.Insert(ctx, ref); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// A second node joins and should take over part of the key space.
	second := New("late", net, Config{})
	net.Bind("late", second.Handler)
	if err := second.Join(ctx, "seed"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	converge(ctx, []*Node{first, second})

	if second.RefCount() == 0 {
		t.Error("joining node received no references")
	}
	if first.RefCount()+second.RefCount() != objects {
		t.Errorf("refs split %d + %d, want total %d",
			first.RefCount(), second.RefCount(), objects)
	}
	// Every object must still be readable from both nodes.
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("obj-%d", i)
		if _, err := second.Read(ctx, id); err != nil {
			t.Fatalf("Read %s via late: %v", id, err)
		}
	}
}

func TestRingHealsAfterNodeFailure(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 8)
	ctx := context.Background()

	// Kill one node.
	victim := nodes[3]
	net.SetDown(victim.Addr(), true)
	alive := append(append([]*Node{}, nodes[:3]...), nodes[4:]...)
	converge(ctx, alive)
	checkRing(t, alive)

	// Lookups still succeed from every surviving node.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		src := alive[rng.Intn(len(alive))]
		if _, _, err := src.Lookup(ctx, dht.ID(rng.Uint64())); err != nil {
			t.Fatalf("Lookup after failure from %s: %v", src.Addr(), err)
		}
	}
}

func TestMaintenanceLoopStartStop(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	node := New("m", net, Config{})
	net.Bind("m", node.Handler)
	node.Create()
	node.StartMaintenance(time.Millisecond)
	node.StartMaintenance(time.Millisecond) // idempotent
	time.Sleep(10 * time.Millisecond)
	node.StopMaintenance()
	node.StopMaintenance() // idempotent
	node.Shutdown()
}

func TestHandlerRejectsUnknownMessage(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	node := New("x", net, Config{})
	node.Create()
	_, err := node.Handler(context.Background(), "", "garbage")
	if !errors.Is(err, ErrUnhandled) {
		t.Errorf("Handler(garbage) err = %v, want ErrUnhandled", err)
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	seed := New("s", net, Config{})
	net.Bind("s", seed.Handler)
	seed.Create()
	n := New("j", net, Config{})
	net.Bind("j", n.Handler)
	if err := n.Join(context.Background(), "s"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := n.Join(context.Background(), "s"); err == nil {
		t.Error("second Join succeeded")
	}
}
