package keysearch

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/sim"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/tcpnet"
)

// fairQueuePolicy sheds a client's second request deterministically:
// one burst token, with a refill rate so slow the Retry-After hint
// saturates at the controller's cap.
func fairQueuePolicy() AdmissionPolicy {
	return AdmissionPolicy{MaxInflight: 64, PerClientRate: 0.0001, PerClientBurst: 1}
}

// TestOverloadShedsWithRetryAfterInMem: a shed request must surface a
// detectable overload error with a positive Retry-After hint after
// crossing the in-memory transport, while other clients (and anonymous
// internal traffic) keep working.
func TestOverloadShedsWithRetryAfterInMem(t *testing.T) {
	pol := fairQueuePolicy()
	cluster, err := NewLocalCluster(4, Config{Dim: 6, Admission: &pol})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	// Anonymous publish traffic is never fair-queued.
	obj := Object{ID: "o1", Keywords: NewKeywordSet("alpha", "beta")}
	if err := cluster.Peers[0].Publish(ctx, obj, "/o1"); err != nil {
		t.Fatalf("publish: %v", err)
	}

	greedy := cluster.Peers[2]
	greedy.SetClientID("greedy")
	opts := SearchOptions{NoCache: true}
	if _, err := greedy.Search(ctx, NewKeywordSet("alpha"), All, opts); err != nil {
		t.Fatalf("first search: %v", err)
	}
	_, err = greedy.Search(ctx, NewKeywordSet("alpha"), All, opts)
	if !IsOverload(err) {
		t.Fatalf("second search err = %v, want overload", err)
	}
	retry, ok := OverloadRetryAfter(err)
	if !ok || retry <= 0 {
		t.Fatalf("Retry-After = %v, %v, want positive hint", retry, ok)
	}
	if !strings.Contains(err.Error(), admission.ReasonClientRate) {
		t.Fatalf("err %q does not carry the shed reason", err)
	}

	// A different client is unaffected by greedy's exhaustion.
	other := cluster.Peers[3]
	other.SetClientID("polite")
	if _, err := other.Search(ctx, NewKeywordSet("alpha"), All, opts); err != nil {
		t.Fatalf("other client's search shed: %v", err)
	}
}

// TestOverloadShedsWithRetryAfterTCP repeats the contract over real
// sockets, where typed errors flatten to strings inside the RPC reply.
func TestOverloadShedsWithRetryAfterTCP(t *testing.T) {
	RegisterTypes()
	net := NewTCPTransport()
	defer net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pol := fairQueuePolicy()
	cfg := Config{Dim: 4, MaintenanceInterval: -1, Admission: &pol}
	var peers []*Peer
	for i := 0; i < 2; i++ {
		p, err := NewPeer(net, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		defer p.Close()
		if i == 0 {
			p.Create()
		} else if err := p.Join(ctx, peers[0].Addr()); err != nil {
			t.Fatalf("join: %v", err)
		}
		peers = append(peers, p)
		for round := 0; round < 8; round++ {
			for _, q := range peers {
				_ = q.StabilizeOnce(ctx)
			}
		}
	}

	obj := Object{ID: "t1", Keywords: NewKeywordSet("gamma", "delta")}
	if err := peers[0].Publish(ctx, obj, "/t1"); err != nil {
		t.Fatalf("publish: %v", err)
	}

	peers[1].SetClientID("greedy")
	opts := SearchOptions{NoCache: true}
	if _, err := peers[1].Search(ctx, NewKeywordSet("gamma"), All, opts); err != nil {
		t.Fatalf("first search over TCP: %v", err)
	}
	_, err := peers[1].Search(ctx, NewKeywordSet("gamma"), All, opts)
	if !IsOverload(err) {
		t.Fatalf("second search err = %v, want overload across TCP", err)
	}
	if retry, ok := OverloadRetryAfter(err); !ok || retry <= 0 {
		t.Fatalf("Retry-After across TCP = %v, %v, want positive hint", retry, ok)
	}
}

// TestCancelledSearchAbandonsWaves: a search whose deadline expires
// mid-traversal must abandon its remaining waves (counted by the root),
// return the deadline error to the initiator, and leave the fleet able
// to serve the next search immediately. Admission counters reconcile:
// every gated request was decided exactly once.
func TestCancelledSearchAbandonsWaves(t *testing.T) {
	reg := telemetry.New(0)
	d, err := sim.NewCustomDeployment(sim.DeployConfig{
		R: 8, Peers: 8, Telemetry: reg,
		Admission: &admission.Policy{MaxInflight: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	objs := []core.Object{
		{ID: "a", Keywords: NewKeywordSet("alpha", "one")},
		{ID: "b", Keywords: NewKeywordSet("alpha", "two")},
		{ID: "c", Keywords: NewKeywordSet("alpha", "three")},
		{ID: "d", Keywords: NewKeywordSet("alpha", "four")},
		{ID: "e", Keywords: NewKeywordSet("alpha", "five")},
	}
	for _, o := range objs {
		if _, err := d.Client.Insert(ctx, o); err != nil {
			t.Fatalf("insert %s: %v", o.ID, err)
		}
	}

	// 5ms per hop makes the 2^7-vertex sequential traversal of the
	// single-keyword subcube vastly outlast a 30ms deadline.
	for _, addr := range d.Addrs {
		d.Net.SetLatency(addr, 5*time.Millisecond)
	}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	_, err = d.Client.SupersetSearch(short, NewKeywordSet("alpha"), core.All,
		core.SearchOptions{NoCache: true})
	cancel()
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("expired search err = %v, want deadline exceeded", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["core_search_abandoned_total"] < 1 {
		t.Fatalf("core_search_abandoned_total = %d, want >= 1 (root must abandon the traversal)",
			snap.Counters["core_search_abandoned_total"])
	}

	// The fleet is immediately healthy once the latency injection ends:
	// no handler is stuck finishing the dead search's subcube.
	for _, addr := range d.Addrs {
		d.Net.SetLatency(addr, 0)
	}
	res, err := d.Client.SupersetSearch(ctx, NewKeywordSet("alpha"), core.All,
		core.SearchOptions{NoCache: true})
	if err != nil {
		t.Fatalf("follow-up search: %v", err)
	}
	if len(res.Matches) != len(objs) {
		t.Fatalf("follow-up search found %d matches, want %d", len(res.Matches), len(objs))
	}

	// Reconcile: every gated request (5 inserts + 2 searches) got
	// exactly one admission decision, and nothing leaked.
	snap = reg.Snapshot()
	decided := snap.Counters["admission_admitted_total"] + snap.Counters["admission_shed_total"]
	if want := uint64(len(objs) + 2); decided != want {
		t.Fatalf("admission decisions = %d, want %d", decided, want)
	}
	if snap.Gauges["admission_queue_depth"] != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", snap.Gauges["admission_queue_depth"])
	}
}

// holdingNet is a TCP transport whose endpoints stall every sub-query
// frame they receive while hold is open, announcing each on held.
type holdingNet struct {
	*tcpnet.Network
	hold chan struct{}
	held chan struct{}
}

func (n *holdingNet) Bind(addr transport.Addr, h transport.Handler) (transport.Node, error) {
	return n.Network.Bind(addr, func(ctx context.Context, from transport.Addr, body any) (any, error) {
		if fmt.Sprintf("%T", body) == "core.msgSubQueryBatch" {
			select {
			case n.held <- struct{}{}:
			default:
			}
			<-n.hold
		}
		return h(ctx, from, body)
	})
}

// TestInsertShedsAtCallerDeadlineTCP: over TCP, an insert waiting in
// the admission queue is shed at its caller's deadline, not at the
// queue's own timeout. Peer S admits one request at a time and waits up
// to 2 s for a slot; its one slot is held by a search whose sub-query
// frame peer C stalls. An insert sent to S with a 20 ms deadline is
// shed for its deadline within 500 ms, and nothing waits out the queue
// timeout.
func TestInsertShedsAtCallerDeadlineTCP(t *testing.T) {
	RegisterTypes()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hn, cli, reg, query, written := deadlineShedFleet(ctx, t)

	searched := make(chan error, 1)
	go func() {
		_, err := cli.Search(ctx, query, All, SearchOptions{NoCache: true})
		searched <- err
	}()
	select {
	case <-hn.held: // S admitted the search, and it waits on C
	case <-time.After(10 * time.Second):
		t.Fatal("the search's sub-query frame never reached C")
	}

	shed := reg.CounterVec("admission_shed_reason_total", "reason")
	start := time.Now()
	ictx, icancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer icancel()
	if err := cli.Publish(ictx, Object{ID: "late", Keywords: written}, "/late"); err == nil {
		t.Fatal("insert admitted while the one slot was held")
	}
	for shed.With(admission.ReasonDeadline).Value() == 0 && time.Since(start) < 500*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
	}
	if got := shed.With(admission.ReasonDeadline).Value(); got != 1 {
		t.Errorf("S shed %d requests for their deadline within %v of the insert, want 1", got, time.Since(start).Round(time.Millisecond))
	}
	if got := shed.With(admission.ReasonQueueTimeout).Value(); got != 0 {
		t.Errorf("S shed %d requests at its queue timeout, want none", got)
	}
	close(hn.hold)
	if err := <-searched; err != nil {
		t.Errorf("held search: %v", err)
	}
}

// deadlineShedFleet builds TestInsertShedsAtCallerDeadlineTCP's two TCP
// peers, each admitting one request and queueing up to 2 s, and picks
// S and C: a one-keyword query rooted at S whose subcube holds a vertex
// of C, and a keyword set indexed at S. It returns the transport, C,
// S's telemetry and the two keyword sets. The ring IDs come from the
// ephemeral ports, so a fleet whose arcs give no such pair (one peer
// owning no vertex) is replaced by a fresh one.
func deadlineShedFleet(ctx context.Context, t *testing.T) (hn *holdingNet, cli *Peer, reg *Telemetry, query, written Set) {
	t.Helper()
	const dim = 8
	pol := AdmissionPolicy{MaxInflight: 1, QueueTimeout: 2 * time.Second}
	for attempt := 0; attempt < 5; attempt++ {
		hn = &holdingNet{Network: NewTCPTransport(), hold: make(chan struct{}), held: make(chan struct{}, 1)}
		var peers []*Peer
		var regs []*Telemetry
		for i := 0; i < 2; i++ {
			r := NewTelemetry(0)
			p, err := NewPeer(hn, "127.0.0.1:0", Config{Dim: dim, MaintenanceInterval: -1, Admission: &pol, Telemetry: r})
			if err != nil {
				t.Fatalf("peer %d: %v", i, err)
			}
			if i == 0 {
				p.Create()
			} else if err := p.Join(ctx, peers[0].Addr()); err != nil {
				t.Fatalf("join: %v", err)
			}
			peers, regs = append(peers, p), append(regs, r)
			for round := 0; round < 8; round++ {
				for _, q := range peers {
					_ = q.StabilizeOnce(ctx)
				}
			}
		}
		owns := func(p *Peer, v hypercube.Vertex) bool {
			return dht.Between(core.VertexKey(p.cfg.Instance, v), p.chord.Predecessor().ID, p.chord.ID())
		}
		for s := range peers {
			srv := peers[s]
			cli, reg = peers[1-s], regs[s]
			query, written = Set{}, Set{}
			for i := 0; i < 256 && (query.Len() == 0 || written.Len() == 0); i++ {
				k := NewKeywordSet("w" + strconv.Itoa(i))
				root := srv.Hasher().Vertex(k)
				if !owns(srv, root) {
					continue
				}
				reaches := false
				for v := hypercube.Vertex(0); v < 1<<dim && !reaches; v++ {
					reaches = v&root == root && owns(cli, v)
				}
				if reaches && query.Len() == 0 {
					query = k
				} else if written.Len() == 0 {
					written = k
				}
			}
			if query.Len() > 0 && written.Len() > 0 {
				t.Cleanup(func() {
					for _, p := range peers {
						p.Close()
					}
					hn.Close()
				})
				return hn, cli, reg, query, written
			}
		}
		for _, p := range peers {
			p.Close()
		}
		hn.Close()
	}
	t.Fatal("five fleets in a row gave no query rooted at one peer reaching the other")
	return
}
