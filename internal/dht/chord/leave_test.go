package chord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

func TestLeaveTransfersReferences(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()
	nodes := buildRing(t, net, 5)

	const objects = 120
	for i := 0; i < objects; i++ {
		ref := dht.Reference{ObjectID: fmt.Sprintf("leave-%d", i), Holder: "h", Location: "/"}
		if _, err := nodes[0].Insert(ctx, ref); err != nil {
			t.Fatal(err)
		}
	}

	// The heaviest node leaves gracefully.
	leaver := nodes[0]
	for _, n := range nodes[1:] {
		if n.RefCount() > leaver.RefCount() {
			leaver = n
		}
	}
	if leaver.RefCount() == 0 {
		t.Fatal("no node holds references")
	}
	if _, err := leaver.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if leaver.RefCount() != 0 {
		t.Errorf("leaver still holds %d refs", leaver.RefCount())
	}
	net.SetDown(leaver.Addr(), true)

	var alive []*Node
	for _, n := range nodes {
		if n != leaver {
			alive = append(alive, n)
		}
	}
	converge(ctx, alive)
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID() < alive[j].ID() })
	checkRing(t, alive)

	// Every reference survived the departure (unlike crash-stop).
	total := 0
	for _, n := range alive {
		total += n.RefCount()
	}
	if total != objects {
		t.Errorf("refs after leave = %d, want %d", total, objects)
	}
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("leave-%d", i)
		if _, err := alive[i%len(alive)].Read(ctx, id); err != nil {
			t.Fatalf("Read %s after leave: %v", id, err)
		}
	}
}

func TestLeaveSingletonRing(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	solo := New("solo-leave", net, Config{})
	net.Bind("solo-leave", solo.Handler)
	solo.Create()
	if _, err := solo.Leave(context.Background()); err != nil {
		t.Fatalf("singleton Leave: %v", err)
	}
}

func TestLeaveBeforeJoin(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	n := New("never-joined", net, Config{})
	if _, err := n.Leave(context.Background()); !errors.Is(err, dht.ErrNotJoined) {
		t.Errorf("Leave before join: %v", err)
	}
}

func TestLeaveTwoNodeRing(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()
	nodes := buildRing(t, net, 2)

	ref := dht.Reference{ObjectID: "pair-obj", Holder: "h", Location: "/"}
	if _, err := nodes[0].Insert(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	remaining := nodes[0]
	converge(ctx, []*Node{remaining})
	if got := remaining.Successor(); got.ID != remaining.ID() {
		t.Errorf("survivor successor = %d, want self", got.ID)
	}
	if _, err := remaining.Read(ctx, "pair-obj"); err != nil {
		t.Errorf("Read after pair leave: %v", err)
	}
}

// TestLeaveFiresDepartHookOnSuccessor: the successor that accepts a
// departure — the node Leave returns — learns the leaver and its
// predecessor from the depart hook, exactly once, while the predecessor
// (whose depart message names the successor instead) does not fire it.
// The index layer pulls the leaver's arc (pred, leaver] off this hook.
func TestLeaveFiresDepartHookOnSuccessor(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	ctx := context.Background()
	nodes := buildRing(t, net, 4)
	pred, leaver, succ := nodes[0], nodes[1], nodes[2]

	type departure struct{ leaver, pred NodeInfo }
	fired := make(chan departure, 8)
	for _, n := range nodes {
		n := n
		n.OnDepart(func(l, p NodeInfo) {
			if n != succ {
				t.Errorf("depart hook fired on %s, want only the successor %s", n.Addr(), succ.Addr())
			}
			fired <- departure{l, p}
		})
	}
	got, err := leaver.Leave(ctx)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got.ID != succ.ID() {
		t.Fatalf("Leave handed off to %s, want the successor %s", got.Addr, succ.Addr())
	}
	select {
	case d := <-fired:
		if d.leaver.ID != leaver.ID() || d.pred.ID != pred.ID() {
			t.Fatalf("depart hook got (leaver %s, pred %s), want (%s, %s)", d.leaver.Addr, d.pred.Addr, leaver.Addr(), pred.Addr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("depart hook never fired")
	}
	select {
	case d := <-fired:
		t.Fatalf("depart hook fired twice (second: %+v)", d)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDepartHookRunsBeforeSplice: the successor calls the depart hook
// before it adopts the leaver's predecessor, so a hook that reads
// OwnedArc sees the arc the node owned before the leave. The index
// layer opens its double-read window for the leaver's arc in that hook;
// were the splice first, a read pinned in the gap would find the arc
// owned and scan a table that does not hold it yet.
func TestDepartHookRunsBeforeSplice(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 4)
	leaver, succ := nodes[1], nodes[2]
	before, _, _ := succ.OwnedArc()
	if before != leaver.ID() {
		t.Fatalf("successor's arc starts at %d before the leave, want the leaver %d", before, leaver.ID())
	}
	seen := make(chan dht.ID, 1)
	succ.OnDepart(func(_, _ NodeInfo) {
		pred, _, _ := succ.OwnedArc()
		seen <- pred
	})
	if _, err := leaver.Leave(context.Background()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	select {
	case pred := <-seen:
		if pred != leaver.ID() {
			t.Fatalf("depart hook saw the arc start at %d, want the leaver %d: the splice ran first", pred, leaver.ID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("depart hook never fired")
	}
}

// TestLeaveReportsRefusingSuccessor: when the successor does not accept
// the departure, Leave names no successor and reports the failure.
func TestLeaveReportsRefusingSuccessor(t *testing.T) {
	net := inmem.New(1)
	defer net.Close()
	nodes := buildRing(t, net, 3)
	net.SetDown(nodes[2].Addr(), true)
	got, err := nodes[1].Leave(context.Background())
	if err == nil || !got.zero() {
		t.Fatalf("Leave with a dead successor = (%+v, %v), want (zero, error)", got, err)
	}
}
