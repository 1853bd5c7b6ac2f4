package keysearch

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/sim"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
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
