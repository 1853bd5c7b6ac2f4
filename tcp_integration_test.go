package keysearch

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// TestTCPClusterEndToEnd runs three peers over real TCP sockets:
// create/join, synchronous stabilization, publish, superset search,
// and fetch.
func TestTCPClusterEndToEnd(t *testing.T) {
	RegisterTypes()
	net := NewTCPTransport()
	defer net.Close()

	cfg := Config{Dim: 6, MaintenanceInterval: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var peers []*Peer
	for i := 0; i < 3; i++ {
		p, err := NewPeer(net, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		defer p.Close()
		if i == 0 {
			p.Create()
		} else if err := p.Join(ctx, peers[0].Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		peers = append(peers, p)
		for round := 0; round < 12; round++ {
			for _, q := range peers {
				_ = q.StabilizeOnce(ctx)
			}
		}
	}

	obj := Object{ID: "tcp-obj", Keywords: NewKeywordSet("distributed", "systems", "go")}
	if err := peers[1].Publish(ctx, obj, "/data/tcp-obj"); err != nil {
		t.Fatalf("Publish over TCP: %v", err)
	}

	res, err := peers[2].Search(ctx, NewKeywordSet("distributed"), All, SearchOptions{})
	if err != nil {
		t.Fatalf("Search over TCP: %v", err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ObjectID != "tcp-obj" {
		t.Fatalf("Search = %+v", res.Matches)
	}

	refs, err := peers[0].Fetch(ctx, "tcp-obj")
	if err != nil || len(refs) != 1 {
		t.Fatalf("Fetch = %v, %v", refs, err)
	}
	if refs[0].Holder != peers[1].Addr() {
		t.Errorf("holder = %s, want %s", refs[0].Holder, peers[1].Addr())
	}

	// Batched parallel search over TCP: exercises the msgSubQueryBatch
	// round trip against real sockets. Fewer physical frames than
	// logical messages proves waves actually coalesced.
	pres, err := peers[2].Search(ctx, NewKeywordSet("distributed"), All,
		SearchOptions{Order: ParallelLevels, NoCache: true})
	if err != nil {
		t.Fatalf("ParallelLevels search over TCP: %v", err)
	}
	if len(pres.Matches) != 1 || pres.Matches[0].ObjectID != "tcp-obj" {
		t.Fatalf("ParallelLevels search = %+v", pres.Matches)
	}
	if pres.Stats.PhysFrames <= 0 || pres.Stats.PhysFrames >= pres.Stats.Messages {
		t.Errorf("PhysFrames = %d, Messages = %d: batching saved nothing over TCP",
			pres.Stats.PhysFrames, pres.Stats.Messages)
	}

	// Pin search and cursor over TCP as well.
	ids, _, err := peers[0].PinSearch(ctx, obj.Keywords)
	if err != nil || len(ids) != 1 {
		t.Fatalf("PinSearch = %v, %v", ids, err)
	}
	cur, err := peers[2].SearchCursor(NewKeywordSet("go"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	page, _, err := cur.Next(ctx, 10)
	if err != nil || len(page) != 1 {
		t.Fatalf("cursor page = %v, %v", page, err)
	}
}

// oracleIDs is the brute-force answer: the IDs of the objects whose
// keyword set satisfies match, by one pass over the corpus.
func oracleIDs(objs []Object, match func(Set) bool) []string {
	var ids []string
	for _, obj := range objs {
		if match(obj.Keywords) {
			ids = append(ids, obj.ID)
		}
	}
	return ids
}

// checkAnswer compares an answer with the oracle's, as sets: the error
// names the query and the object IDs the answer lacks, and those it has
// that the oracle does not or that it lists twice.
func checkAnswer(op, query string, got, want []string) error {
	wanted := make(map[string]bool, len(want))
	for _, id := range want {
		wanted[id] = true
	}
	count := make(map[string]int, len(got))
	var missing, extra []string
	for _, id := range got {
		if count[id]++; !wanted[id] || count[id] > 1 {
			extra = append(extra, id)
		}
	}
	for _, id := range want {
		if count[id] == 0 {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	return fmt.Errorf("%s %q: answer has %d objects, oracle %d — missing %v, extra or repeated %v",
		op, query, len(got), len(want), missing, extra)
}

func matchIDs(ms []Match) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ObjectID
	}
	return ids
}

// TestTCPAnswersMatchOracle stands up a 3-peer TCP cluster, publishes a
// corpus on the first peer BEFORE the others join (so the joins pull
// real migration chunks over the wire), and checks every answer of a
// fixed query suite — pin, superset top-down, superset parallel-batch,
// prefix multicast, cursor paging — against a brute-force pass over
// that corpus; a mismatch names the query and the objects. The queries
// run inside the migration windows the joins opened, with no settling
// wait: double-reads are what must keep the answers exact. It also
// requires that pin, superset, batch and migrate messages actually
// crossed the wire (not some other path).
func TestTCPAnswersMatchOracle(t *testing.T) {
	RegisterTypes()
	reg := telemetry.New(0)
	net := NewTCPTransport()
	net.SetTelemetry(reg)
	defer net.Close()

	cfg := Config{Dim: 6, MaintenanceInterval: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	objs := churnCorpus(24)
	p0, err := NewPeer(net, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	p0.Create()
	publishAll(t, p0, objs)

	peers := []*Peer{p0}
	for i := 1; i < 3; i++ {
		p, err := NewPeer(net, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		defer p.Close()
		if err := p.Join(ctx, p0.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		peers = append(peers, p)
		stabilizeRounds(ctx, peers, 12)
	}

	// The joins must have moved index entries via the migration
	// protocol over the wire (double-read keeps answers exact while
	// transfers are still in flight, so no settling poll needed).
	handled := reg.CounterVec("transport_tcp_handled_total", "type")
	migrated := handled.With("core.msgMigrateChunk")
	deadline := time.Now().Add(20 * time.Second)
	for migrated.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if migrated.Value() == 0 {
		t.Fatal("no msgMigrateChunk handled over TCP after joins")
	}

	check := func(op, query string, got, want []string) {
		t.Helper()
		if err := checkAnswer(op, query, got, want); err != nil {
			t.Error(err)
		}
	}
	for _, obj := range objs {
		ids, _, err := peers[2].PinSearch(ctx, obj.Keywords)
		if err != nil {
			t.Fatalf("pin %s: %v", obj.ID, err)
		}
		check("pin", obj.Keywords.String(), ids, oracleIDs(objs, obj.Keywords.Equal))
	}
	for _, q := range []Set{NewKeywordSet("churn"), NewKeywordSet("b0"), NewKeywordSet("b3")} {
		for _, order := range []TraversalOrder{TopDown, ParallelLevels} {
			res, err := peers[1].Search(ctx, q, All, SearchOptions{Order: order, NoCache: true})
			if err != nil {
				t.Fatalf("superset %s order %v: %v", q, order, err)
			}
			check(fmt.Sprintf("superset-%v", order), q.String(), matchIDs(res.Matches), oracleIDs(objs, q.SubsetOf))
		}
	}
	for _, pfx := range []string{"b", "chu", "u1", "nomatch"} {
		res, err := peers[1].PrefixSearch(ctx, pfx, All, SearchOptions{NoCache: true})
		if err != nil {
			t.Fatalf("prefix %q: %v", pfx, err)
		}
		check("prefix", pfx, matchIDs(res.Matches),
			oracleIDs(objs, func(k Set) bool { return k.HasPrefix(pfx) }))
	}
	// Cursor: pages of at most 7, whose concatenation — checked as one
	// answer, so a repeat across pages counts — is the superset answer.
	churn := NewKeywordSet("churn")
	cur, err := peers[2].SearchCursor(churn, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var paged []string
	for pg := 0; !cur.Exhausted(); pg++ {
		page, _, err := cur.Next(ctx, 7)
		if err != nil {
			t.Fatalf("cursor page %d: %v", pg, err)
		}
		if len(page) > 7 {
			t.Errorf("cursor page %d holds %d matches, want <= 7", pg, len(page))
		}
		paged = append(paged, matchIDs(page)...)
	}
	check("cursor", churn.String(), paged, oracleIDs(objs, churn.SubsetOf))

	// Pin queries ride msgTQuery (ClassPin); there is no separate pin
	// message.
	for _, typ := range []string{
		"core.msgTQuery", "core.msgSubQueryBatch",
		"core.msgMigrateChunk", "core.msgMigrateCommit",
	} {
		if handled.With(typ).Value() == 0 {
			t.Errorf("no %s handled over TCP", typ)
		}
	}
	// The per-type byte accounting must have charged traffic in both
	// directions for the batch path.
	for _, name := range []string{"transport_tcp_bytes_sent_total", "transport_tcp_bytes_recv_total"} {
		if reg.CounterVec(name, "type").With("core.msgSubQueryBatch").Value() == 0 {
			t.Errorf("%s{core.msgSubQueryBatch} is zero", name)
		}
	}

	// The checker bites: the oracle's own answer with one object
	// withheld, and with one repeated, must each fail and name it.
	t.Run("withheld-object", func(t *testing.T) {
		want := oracleIDs(objs, churn.SubsetOf)
		if err := checkAnswer("superset", "churn", want, want); err != nil {
			t.Fatalf("the oracle's own answer fails the checker: %v", err)
		}
		err := checkAnswer("superset", "churn", want[1:], want)
		if err == nil || !strings.Contains(err.Error(), "missing ["+want[0]+"]") || !strings.Contains(err.Error(), `"churn"`) {
			t.Errorf("answer without %s: checker said %v, want an error naming the query and that object as missing", want[0], err)
		}
		err = checkAnswer("superset", "churn", append([]string{want[3]}, want...), want)
		if err == nil || !strings.Contains(err.Error(), "repeated ["+want[3]+"]") {
			t.Errorf("answer listing %s twice: checker said %v, want an error naming it", want[3], err)
		}
	})
}
