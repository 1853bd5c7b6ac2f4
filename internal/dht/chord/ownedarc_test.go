package chord

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// owns is the per-key ownership rule as Node.Owns spelled it before the
// arc snapshot replaced it — one lock per key — kept as the reference
// OwnedArc is checked against.
func owns(n *Node, key dht.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.joined {
		return false
	}
	if n.predecessor.zero() {
		return true
	}
	return dht.Between(key, n.predecessor.ID, n.self.ID)
}

// TestOwnedArcMatchesOwns: one OwnedArc snapshot plus a lock-free
// dht.Between per key answers exactly what the per-key rule answers,
// for every state it has a case for — not joined (owns nothing),
// predecessor unknown (optimistically everything), a single-node ring
// (pred == self), and plain and wrap-around arcs — over seeded random
// keys plus the arc's own end points.
func TestOwnedArcMatchesOwns(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	rng := rand.New(rand.NewSource(18))
	const maxID = ^dht.ID(0)

	type state struct {
		name   string
		joined bool
		pred   NodeInfo // zero Addr = unknown
		self   dht.ID
	}
	states := []state{
		{name: "not joined", joined: false, pred: NodeInfo{ID: 10, Addr: "p"}, self: 500},
		{name: "not joined, no predecessor", joined: false, self: 500},
		{name: "zero predecessor", joined: true, self: 500},
		{name: "pred == self", joined: true, pred: NodeInfo{ID: 500, Addr: "s"}, self: 500},
		{name: "plain arc", joined: true, pred: NodeInfo{ID: 100, Addr: "p"}, self: 500},
		{name: "wrap-around arc", joined: true, pred: NodeInfo{ID: maxID - 100, Addr: "p"}, self: 500},
		{name: "arc ending at 0", joined: true, pred: NodeInfo{ID: maxID - 7, Addr: "p"}, self: 0},
		{name: "arc starting at 0", joined: true, pred: NodeInfo{ID: 0, Addr: "p"}, self: maxID},
	}
	for i := 0; i < 32; i++ {
		states = append(states, state{
			name:   fmt.Sprintf("random arc %d", i),
			joined: true,
			pred:   NodeInfo{ID: dht.ID(rng.Uint64()), Addr: "p"},
			self:   dht.ID(rng.Uint64()),
		})
	}

	for _, st := range states {
		n := New("s", net, Config{})
		n.self.ID = st.self
		n.joined = st.joined
		n.predecessor = st.pred

		keys := []dht.ID{0, 1, maxID, st.self, st.self - 1, st.self + 1, st.pred.ID, st.pred.ID - 1, st.pred.ID + 1}
		for i := 0; i < 500; i++ {
			keys = append(keys, dht.ID(rng.Uint64()))
		}
		// Keys near the end points are where an off-by-one would hide.
		for i := 0; i < 100; i++ {
			keys = append(keys, st.self+dht.ID(rng.Intn(9))-4, st.pred.ID+dht.ID(rng.Intn(9))-4)
		}
		pred, self, joined := n.OwnedArc()
		for _, key := range keys {
			if got, want := joined && dht.Between(key, pred, self), owns(n, key); got != want {
				t.Fatalf("%s: key %d: arc (%d, %d] joined=%v says %v, the per-key rule says %v",
					st.name, key, pred, self, joined, got, want)
			}
		}
	}
}

// TestRPCHandledLabelsAreTypeNames pins chord_rpc_handled_total's label
// values: each handled RPC counts under the constant the type switch
// names, which must stay the string %T printed before — dashboards key
// on it — and a refused message counts nowhere.
func TestRPCHandledLabelsAreTypeNames(t *testing.T) {
	reg := telemetry.New(4)
	net := inmem.New(1)
	defer net.Close()
	n := New("x", net, Config{Telemetry: reg})
	n.Create()
	ctx := context.Background()

	// The reference RPCs go before the notify: a singleton owns every
	// key, the node it adopts as predecessor would take most of them.
	rpcs := []any{
		rpcFindClosest{ID: 7}, rpcGetPredecessor{}, rpcGetSuccessorList{}, rpcPing{},
		rpcInsertRef{Ref: dht.Reference{ObjectID: "o", Holder: "h"}},
		rpcDeleteRef{Ref: dht.Reference{ObjectID: "o", Holder: "h"}},
		rpcReadRefs{ObjectID: "o"}, rpcNotify{Candidate: NodeInfo{ID: 9, Addr: "c"}},
		rpcHandoff{NewNode: NodeInfo{ID: 3, Addr: "n"}},
		rpcDepart{Leaver: NodeInfo{ID: 4, Addr: "l"}},
	}
	for _, rpc := range rpcs {
		if _, err := n.Handler(ctx, "", rpc); err != nil {
			t.Fatalf("Handler(%T): %v", rpc, err)
		}
	}
	if _, err := n.Handler(ctx, "", "not chord"); err != ErrUnhandled {
		t.Fatalf("Handler(string) = %v, want the bare ErrUnhandled sentinel", err)
	}

	counters := reg.Snapshot().Counters
	for _, rpc := range rpcs {
		series := fmt.Sprintf("chord_rpc_handled_total{type=%q}", fmt.Sprintf("%T", rpc))
		if counters[series] != 1 {
			t.Errorf("%s = %d, want 1", series, counters[series])
		}
	}
	handled := 0
	for name := range counters {
		if strings.HasPrefix(name, "chord_rpc_handled_total{") {
			handled++
		}
	}
	if handled != len(rpcs) {
		t.Errorf("%d chord_rpc_handled_total series, want %d: %v", handled, len(rpcs), counters)
	}

	// Neither counting an RPC nor refusing a message formats anything:
	// an instrumented node handles a ping, and turns away another
	// layer's message, without allocating.
	var ping, foreign any = rpcPing{}, "not chord"
	if allocs := testing.AllocsPerRun(100, func() { _, _ = n.Handler(ctx, "", ping) }); allocs != 0 {
		t.Errorf("instrumented Handler(rpcPing) allocates %.0f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = n.Handler(ctx, "", foreign) }); allocs != 0 {
		t.Errorf("refusing a non-chord message allocates %.0f times per call, want 0", allocs)
	}
}
