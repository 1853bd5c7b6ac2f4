package core

import (
	"context"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// newReplicatedDeployment builds two independent server fleets, one
// per index instance, each with its own hash seed and vertex mapping,
// plus the Replicated wrapper over their clients. (A production
// deployment would colocate both instances' servers on the same
// physical nodes; separate fleets keep the failure injection in these
// tests precise.)
func newReplicatedDeployment(t *testing.T, r, nServers int) (*inmem.Network, []transport.Addr, *Replicated, []*Client) {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })

	buildFleet := func(prefix string, seed uint64) (FuncResolver, keyword.Hasher, []transport.Addr) {
		hasher := keyword.MustNewHasher(r, seed)
		addrs := make([]transport.Addr, nServers)
		for i := range addrs {
			addrs[i] = transport.Addr(prefix + strconv.Itoa(i))
		}
		resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr {
			return addrs[int(uint64(v))%nServers]
		})
		for i := range addrs {
			srv, err := NewServer(ServerConfig{Hasher: hasher, Resolver: resolver, Sender: net})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Bind(addrs[i], srv.Handler); err != nil {
				t.Fatal(err)
			}
		}
		return resolver, hasher, addrs
	}

	resA, hasherA, addrsA := buildFleet("rep-", 100)
	resB, hasherB, addrsB := buildFleet("repB-", 200)

	cA, err := NewInstanceClient("main", hasherA, resA, net)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := NewInstanceClient("replica-1", hasherB, resB, net)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplicated(cA, cB)
	if err != nil {
		t.Fatal(err)
	}
	return net, append(addrsA, addrsB...), rep, []*Client{cA, cB}
}

func TestNewReplicatedValidation(t *testing.T) {
	if _, err := NewReplicated(); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := NewReplicated(nil); err == nil {
		t.Error("nil client accepted")
	}
	d := newDeployment(t, 6, 1, 0)
	if _, err := NewReplicated(d.client, d.client); err == nil {
		t.Error("duplicate instances accepted")
	}
}

func TestReplicatedInsertFansOut(t *testing.T) {
	_, _, rep, clients := newReplicatedDeployment(t, 8, 4)
	ctx := context.Background()
	o := obj("fan", "alpha", "beta")
	st, err := rep.Insert(ctx, o)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if st.Messages != 4 { // 2 per replica
		t.Errorf("messages = %d, want 4", st.Messages)
	}
	// Present in both instances.
	for _, c := range clients {
		ids, _, err := c.PinSearch(ctx, o.Keywords)
		if err != nil || len(ids) != 1 {
			t.Errorf("replica %s pin = %v, %v", c.Instance(), ids, err)
		}
	}
}

func TestReplicatedSearchFailsOverWhenPrimaryRootDies(t *testing.T) {
	net, _, rep, clients := newReplicatedDeployment(t, 8, 4)
	ctx := context.Background()
	o := obj("survivor", "omega", "psi")
	if _, err := rep.Insert(ctx, o); err != nil {
		t.Fatal(err)
	}
	q := keyword.NewSet("omega")

	// Kill the PRIMARY instance's root node for this query.
	primary := clients[0]
	rootAddr := mustResolve(t, primary, q)
	net.SetDown(rootAddr, true)

	// Direct primary search fails…
	if _, err := primary.SupersetSearch(ctx, q, All, SearchOptions{}); err == nil {
		t.Fatal("primary search unexpectedly succeeded")
	}
	// …but the replicated search fails over to the secondary.
	res, err := rep.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatalf("replicated search: %v", err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ObjectID != "survivor" {
		t.Errorf("matches = %+v", res.Matches)
	}
	// Pin search fails over too.
	ids, _, err := rep.PinSearch(ctx, o.Keywords)
	if err != nil || len(ids) != 1 {
		t.Errorf("replicated pin = %v, %v", ids, err)
	}
}

func TestReplicatedDeleteRemovesFromAllReplicas(t *testing.T) {
	_, _, rep, clients := newReplicatedDeployment(t, 8, 4)
	ctx := context.Background()
	o := obj("gone", "mu", "nu")
	if _, err := rep.Insert(ctx, o); err != nil {
		t.Fatal(err)
	}
	found, _, err := rep.Delete(ctx, o)
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	for _, c := range clients {
		ids, _, _ := c.PinSearch(ctx, o.Keywords)
		if len(ids) != 0 {
			t.Errorf("replica %s still has %v", c.Instance(), ids)
		}
	}
	// Second delete finds nothing anywhere.
	found, _, err = rep.Delete(ctx, o)
	if err != nil || found {
		t.Errorf("second delete = %v, %v", found, err)
	}
}

func TestReplicatedNonTransportErrorsDoNotFailOver(t *testing.T) {
	_, _, rep, _ := newReplicatedDeployment(t, 8, 4)
	if _, _, err := rep.PinSearch(context.Background(), keyword.Set{}); err != ErrEmptyQuery {
		t.Errorf("empty query: %v, want ErrEmptyQuery", err)
	}
}

func mustResolve(t *testing.T, c *Client, k keyword.Set) transport.Addr {
	t.Helper()
	addr, err := c.ResolveRoot(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestReplicatedTelemetryCounters checks the fan-out accounting: one
// write per replica per mutation, one read per replica attempted, and
// a failover tick each time a read moves past the primary.
func TestReplicatedTelemetryCounters(t *testing.T) {
	net, _, rep, clients := newReplicatedDeployment(t, 8, 4)
	reg := telemetry.New(8)
	rep.SetTelemetry(reg)
	ctx := context.Background()

	o := obj("counted", "omega", "psi")
	if _, err := rep.Insert(ctx, o); err != nil {
		t.Fatal(err)
	}
	q := keyword.NewSet("omega")
	// Healthy read: the primary answers, no failover.
	if _, err := rep.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	// With the primary's root down the read falls over to the replica.
	net.SetDown(mustResolve(t, clients[0], q), true)
	if _, err := rep.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"core_replica_writes_total":         2, // one Insert × two replicas
		"core_replica_write_failures_total": 0,
		"core_replica_reads_total":          3, // healthy read + failed primary + replica
		"core_replica_failovers_total":      1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["core_replica_fanout"]; got != 2 {
		t.Errorf("core_replica_fanout = %d, want 2", got)
	}
}

// TestReplicaClientsNamesAndSeeds pins the replica-instance rule every
// deployment builds its clients with: instance base, then
// "<base>-replica-<i>", each hashed with the base seed plus i times the
// golden-ratio constant.
func TestReplicaClientsNamesAndSeeds(t *testing.T) {
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	resolver := FuncResolver(func(hypercube.Vertex) transport.Addr { return "n0" })
	const golden uint64 = 0x9e3779b97f4a7c15
	for _, seed := range []uint64{0, 42} {
		clients, err := ReplicaClients(3, "main", 8, seed, resolver, net, true)
		if err != nil {
			t.Fatal(err)
		}
		want := []struct {
			instance string
			seed     uint64
		}{
			{"main", seed},
			{"main-replica-1", seed + golden},
			{"main-replica-2", seed + golden + golden},
		}
		for i, c := range clients {
			if c.Instance() != want[i].instance || c.hasher.Seed() != want[i].seed || c.hasher.Dim() != 8 || !c.spreadOn {
				t.Errorf("seed %d, replica %d: instance %q, hash seed %#x, dim %d, spread %v; want %q, %#x, 8, true",
					seed, i, c.Instance(), c.hasher.Seed(), c.hasher.Dim(), c.spreadOn, want[i].instance, want[i].seed)
			}
		}
	}
}
