package core

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// TestShardedScanEquivalence runs the same seeded query mix against
// two identically loaded deployments, one lock and 8 stripes, and
// requires byte-identical outcomes against the single-lock baseline:
// matches (including order), exhaustion, logical and physical
// accounting, rounds, completeness, and traces. Sharding is a pure
// locality/throughput change; any visible divergence is a bug.
func TestShardedScanEquivalence(t *testing.T) {
	const r, nServers = 8, 4
	configs := []struct {
		label   string
		stripes int
	}{
		{"shards=1", 1}, // baseline: a one-core machine
		{"shards=8", 8},
	}
	deployments := make([]*deployment, len(configs))
	for i, c := range configs {
		deployments[i] = newDeploymentStriped(t, r, nServers, 0, BatchOn, c.stripes)
		if got := len(deployments[i].servers[0].shards); got != c.stripes {
			t.Fatalf("%s: built with %d stripes", c.label, got)
		}
	}

	objects := batchCorpus(23, 120)
	ctx := context.Background()
	for _, o := range objects {
		for _, d := range deployments {
			if _, err := d.client.Insert(ctx, o); err != nil {
				t.Fatal(err)
			}
		}
	}

	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}
	for _, q := range batchQueries(29) {
		for _, th := range []int{1, 3, All} {
			base, errBase := deployments[0].client.SupersetSearch(ctx, q, th, opts)
			for i := 1; i < len(deployments); i++ {
				got, errGot := deployments[i].client.SupersetSearch(ctx, q, th, opts)
				label := q.Key() + "/th=" + strconv.Itoa(th) + "/" + configs[i].label
				requireSameResult(t, label, base, got, errBase, errGot)
				// Same batch mode everywhere, so even the fields wave
				// batching is allowed to change must agree here.
				if errGot == nil {
					if base.Stats.PhysFrames != got.Stats.PhysFrames {
						t.Errorf("%s: PhysFrames %d vs %d", label, base.Stats.PhysFrames, got.Stats.PhysFrames)
					}
					if base.Stats.Rounds != got.Stats.Rounds {
						t.Errorf("%s: Rounds %d vs %d", label, base.Stats.Rounds, got.Stats.Rounds)
					}
				}
			}
			if errBase == nil && th == All {
				want := bruteForce(objects, q)
				got := matchIDs(base.Matches)
				sort.Strings(want)
				if !equalStrings(got, want) {
					t.Fatalf("%s/th=All: baseline result %v, brute force %v", q.Key(), got, want)
				}
			}
		}
	}
}

// TestShardTelemetryExposition checks the striped server's
// instruments: per-shard entry gauges flatten to labelled series under
// ONE well-formed TYPE line per family, and every inserted entry is
// counted by exactly one stripe. A long batch frame over those stripes
// answers every vertex holding a match, by strictly increasing Index.
func TestShardTelemetryExposition(t *testing.T) {
	reg := telemetry.New(16)
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	hasher := keyword.MustNewHasher(6, 42)
	var srv *Server
	var err error
	withProcs(4, func() { // 4 stripes
		srv, err = NewServer(ServerConfig{
			Hasher:    hasher,
			Resolver:  FuncResolver(func(hypercube.Vertex) transport.Addr { return "ix-0" }),
			Sender:    net,
			Telemetry: reg,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	const inserted = 40
	for i := 0; i < inserted; i++ {
		srv.insertEntry(DefaultInstance, hypercube.Vertex(i%64),
			keyword.NewSet("hub", "w"+strconv.Itoa(i)).Key(), "o-"+strconv.Itoa(i))
	}
	frame := msgSubQueryBatch{
		Instance: DefaultInstance,
		QueryKey: keyword.NewSet("hub").Key(),
		Limit:    -1,
	}
	for v := 63; v >= 0; v-- { // every vertex, highest first: Index is not vertex order
		frame.Units = append(frame.Units, wireUnit{Vertex: uint64(v)})
	}
	resp := srv.subQueryBatch(context.Background(), frame)
	if !resp.fits(len(frame.Units)) {
		t.Fatalf("hit indices not strictly increasing inside [0, %d): %+v", len(frame.Units), resp.Hits)
	}
	for _, h := range resp.Hits {
		if v := frame.Units[h.Index].Vertex; v >= inserted || len(h.Matches) != 1 {
			t.Errorf("hit %d (vertex %d) holds %d matches, want 1 for a vertex below %d", h.Index, v, len(h.Matches), inserted)
		}
	}
	if len(resp.Hits) != inserted {
		t.Errorf("%d hits, want %d: one per vertex holding a matching entry", len(resp.Hits), inserted)
	}

	snap := reg.Snapshot()
	var shardTotal int64
	for i := 0; i < 4; i++ {
		shardTotal += snap.Gauges[`core_server_shard_entries{shard="`+strconv.Itoa(i)+`"}`]
	}
	if shardTotal != inserted {
		t.Errorf("per-shard entry gauges sum to %d, want %d", shardTotal, inserted)
	}

	text := reg.PrometheusString()
	if n := strings.Count(text, "# TYPE core_server_shard_entries gauge\n"); n != 1 {
		t.Errorf("TYPE line for the shard-entries family appears %d times, want exactly 1:\n%s", n, text)
	}
	if strings.Contains(text, `# TYPE core_server_shard_entries{`) {
		t.Errorf("malformed TYPE line carries labels:\n%s", text)
	}
	if !strings.Contains(text, `core_server_shard_entries{shard="0"}`) {
		t.Errorf("per-shard series missing from exposition:\n%s", text)
	}
}

// TestServerConcurrencyHammer pounds one sharded server from many
// goroutines — inserts, deletes, batched scans, pin queries, stats —
// for the race detector. It asserts no invariant beyond "no race, no
// panic, scans stay well-formed": the equivalence tests pin semantics,
// this pins memory safety of the striped state under contention.
func TestServerConcurrencyHammer(t *testing.T) {
	d := newDeploymentStriped(t, 6, 1, 0, BatchOn, 4)
	srv := d.servers[0]
	root := hypercube.Vertex(0)
	query := keyword.NewSet("hub")
	queryKey := query.Key()

	units := make([]wireUnit, 1<<6)
	for v := range units {
		units[v] = wireUnit{Vertex: uint64(v)}
	}
	frame := msgSubQueryBatch{
		Instance: DefaultInstance,
		QueryKey: queryKey,
		Root:     uint64(root),
		Limit:    -1,
	}
	frame.Units = units

	stop := make(chan struct{})
	time.AfterFunc(500*time.Millisecond, func() { close(stop) })
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}

	for w := 0; w < 4; w++ {
		w := w
		worker(func(i int) { // writer: insert + delete churn
			v := hypercube.Vertex((i*7 + w) % 64)
			set := keyword.NewSet("hub", "w"+strconv.Itoa(i%16)).Key()
			id := "o-" + strconv.Itoa(w) + "-" + strconv.Itoa(i%32)
			srv.insertEntry(DefaultInstance, v, set, id)
			if i%3 == 0 {
				srv.deleteEntry(DefaultInstance, v, set, id)
			}
		})
	}
	for w := 0; w < 4; w++ {
		worker(func(int) { // batch scanner
			resp := srv.subQueryBatch(context.Background(), frame)
			if !resp.fits(len(frame.Units)) {
				t.Errorf("batch hit indices not increasing inside [0, %d): %+v", len(frame.Units), resp.Hits)
			}
		})
	}
	worker(func(i int) { // pin queries
		v := hypercube.Vertex(i % 64)
		pinLocal(srv, DefaultInstance, v, keyword.NewSet("hub", "w"+strconv.Itoa(i%16)).Key())
	})
	worker(func(int) { // stats walker (locks every shard in turn)
		srv.Stats()
	})
	wg.Wait()
}
