package keysearch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
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
	// gob round trip against real sockets. Fewer physical frames than
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

// runTCPWireCluster stands up a 3-peer TCP cluster under the given
// wire mode, publishes a corpus on the first peer BEFORE the others
// join (so the joins pull real migration chunks over the wire), runs a
// fixed query suite — pin, superset top-down, superset parallel-batch,
// prefix multicast, cursor paging — and returns a canonical
// fingerprint of every answer
// plus the telemetry registry for wire-level assertions.
func runTCPWireCluster(t *testing.T, mode string) (string, *telemetry.Registry) {
	t.Helper()
	RegisterTypes()
	reg := telemetry.New(0)
	net, err := NewTCPTransportConfig(TCPConfig{Wire: mode})
	if err != nil {
		t.Fatal(err)
	}
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
		for round := 0; round < 12; round++ {
			for _, q := range peers {
				_ = q.StabilizeOnce(ctx)
			}
		}
	}

	// The joins must have moved index entries via the migration
	// protocol over this wire mode (double-read keeps answers exact
	// while transfers are still in flight, so no settling poll needed).
	migrated := reg.CounterVec("transport_tcp_handled_total", "type").With("core.msgMigrateChunk")
	deadline := time.Now().Add(20 * time.Second)
	for migrated.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if migrated.Value() == 0 {
		t.Fatalf("%s: no msgMigrateChunk handled over TCP after joins", mode)
	}

	var lines []string
	record := func(op, q string, ids []string) {
		sort.Strings(ids)
		lines = append(lines, op+"|"+q+"|"+strings.Join(ids, ","))
	}
	for _, obj := range objs {
		ids, _, err := peers[2].PinSearch(ctx, obj.Keywords)
		if err != nil {
			t.Fatalf("%s: pin %s: %v", mode, obj.ID, err)
		}
		record("pin", obj.Keywords.String(), ids)
	}
	for qi, q := range []Set{NewKeywordSet("churn"), NewKeywordSet("b0"), NewKeywordSet("b3")} {
		for _, order := range []TraversalOrder{TopDown, ParallelLevels} {
			res, err := peers[1].Search(ctx, q, All, SearchOptions{Order: order, NoCache: true})
			if err != nil {
				t.Fatalf("%s: superset %d order %v: %v", mode, qi, order, err)
			}
			ids := make([]string, 0, len(res.Matches))
			for _, m := range res.Matches {
				ids = append(ids, m.ObjectID)
			}
			record(fmt.Sprintf("superset-%v", order), q.String(), ids)
		}
	}
	// Prefix multicasts over the same wire mode — still inside the
	// migration window the joins opened, so double-reads cover them.
	for _, pfx := range []string{"b", "chu", "u1", "nomatch"} {
		res, err := peers[1].PrefixSearch(ctx, pfx, All, SearchOptions{NoCache: true})
		if err != nil {
			t.Fatalf("%s: prefix %q: %v", mode, pfx, err)
		}
		ids := make([]string, 0, len(res.Matches))
		for _, m := range res.Matches {
			ids = append(ids, m.ObjectID)
		}
		record("prefix", pfx, ids)
	}
	cur, err := peers[2].SearchCursor(NewKeywordSet("churn"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; !cur.Exhausted(); pg++ {
		page, _, err := cur.Next(ctx, 7)
		if err != nil {
			t.Fatalf("%s: cursor page %d: %v", mode, pg, err)
		}
		ids := make([]string, 0, len(page))
		for _, m := range page {
			ids = append(ids, m.ObjectID)
		}
		record("cursor-page-"+strconv.Itoa(pg), "churn", ids)
	}

	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:]), reg
}

// TestTCPWireModeMatrix proves the -wire knob is answer-preserving:
// the same cluster build, publish, migration and query suite run under
// both wire protocols must produce byte-identical answer fingerprints,
// and each mode must have actually exercised pin, superset, batch and
// migrate messages on the wire (not fallen back to some other path).
func TestTCPWireModeMatrix(t *testing.T) {
	fps := map[string]string{}
	for _, mode := range []string{WireBinary, WireGob} {
		fp, reg := runTCPWireCluster(t, mode)
		fps[mode] = fp
		handled := reg.CounterVec("transport_tcp_handled_total", "type")
		// Pin queries ride msgTQuery (ClassPin); there is no separate
		// pin message.
		for _, typ := range []string{
			"core.msgTQuery", "core.msgSubQueryBatch",
			"core.msgMigrateChunk", "core.msgMigrateCommit",
		} {
			if handled.With(typ).Value() == 0 {
				t.Errorf("%s: no %s handled over TCP", mode, typ)
			}
		}
		// The per-type byte accounting must have charged traffic in
		// both directions for the batch path.
		for _, name := range []string{"transport_tcp_bytes_sent_total", "transport_tcp_bytes_recv_total"} {
			if reg.CounterVec(name, "type").With("core.msgSubQueryBatch").Value() == 0 {
				t.Errorf("%s: %s{core.msgSubQueryBatch} is zero", mode, name)
			}
		}
	}
	if fps[WireBinary] != fps[WireGob] {
		t.Fatalf("wire modes disagree: binary fingerprint %s != gob %s", fps[WireBinary], fps[WireGob])
	}
}
