package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// zipfLog generates the small Zipf-popular query log both smoke tests
// replay.
func zipfLog(t testing.TB, c *corpus.Corpus) *corpus.QueryLog {
	t.Helper()
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries:            1200,
		Templates:          150,
		Seed:               11,
		MaxTemplateResults: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestZipfSmokeByteIdentical replays a Zipf query log against a fleet
// with the full hot-vertex layer on (popularity cache, refinement
// reuse, soft replication, client spreading) and against a cache-off
// fleet, asserting every answer is byte-identical — the tentpole
// correctness contract: the layer must be invisible in the bytes.
func TestZipfSmokeByteIdentical(t *testing.T) {
	c := testCorpus(t, 4000)
	log := zipfLog(t, c)

	off, err := NewCustomDeployment(DeployConfig{R: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if err := off.InsertCorpus(c); err != nil {
		t.Fatal(err)
	}
	hot := hotFleet(t, c, nil)

	ctx := context.Background()
	var hits, softServes, refineHits, counted int
	for _, q := range log.Queries() {
		total := log.ResultSize(q.Template)
		if total == 0 {
			continue
		}
		counted++
		want, err := off.Client.SupersetSearch(ctx, q.Keywords, total, core.SearchOptions{})
		if err != nil {
			t.Fatalf("cache-off query %v: %v", q.Keywords, err)
		}
		got, err := hot.Client.SupersetSearch(ctx, q.Keywords, total, core.SearchOptions{})
		if err != nil {
			t.Fatalf("hot query %v: %v", q.Keywords, err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Exhausted != want.Exhausted {
			t.Fatalf("query %v answers diverge (cacheHit=%v refineHit=%v softServed=%v)",
				q.Keywords, got.Stats.CacheHit, got.Stats.RefineHit, got.Stats.SoftServed)
		}
		if got.Stats.CacheHit {
			hits++
		}
		if got.Stats.SoftServed {
			softServes++
		}
		if got.Stats.RefineHit {
			refineHits++
		}
	}
	if counted == 0 {
		t.Fatal("no result-bearing queries in the log")
	}
	// The layer must actually have engaged for the comparison to mean
	// anything: the Zipf head guarantees repeats, repeats guarantee
	// cache hits and promotions.
	if hits == 0 {
		t.Error("hot fleet recorded no cache hits over a Zipf log")
	}
	if softServes == 0 {
		t.Error("no query was served by a soft replica despite spreading")
	}

	// Cross-client refinement reuse rides the same byte-identity bar:
	// derive a refined answer from a cached exhausted ancestor and
	// compare against the cache-off traversal. It gets a fresh fleet:
	// after the replay the ancestor's root may be promoted, and then the
	// spreading client's base search is answered (and cached) by a soft
	// replica, while RefineSearch asks the owner.
	refined := pickRefinable(t, log)
	base := keyword.NewSet(refined.Words()[0])
	fresh := hotFleet(t, c, nil)
	if _, err := fresh.Client.SupersetSearch(ctx, base, core.All, core.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	rs, err := fresh.Client.RefineSearch(ctx, base, refined, core.All, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Stats.RefineHit {
		t.Fatal("refinement fell back to a traversal despite an exhausted cached ancestor")
	}
	want, err := off.Client.SupersetSearch(ctx, refined, core.All, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Matches, want.Matches) {
		t.Errorf("derived refinement differs from the cache-off traversal for %v", refined)
	}
	t.Logf("zipf smoke: %d queries, %d cache hits, %d soft serves, %d in-search refine hits",
		counted, hits, softServes, refineHits)
}

// hotFleet builds the smokes' r = 6 fleet with the whole hot-vertex
// layer on: popularity cache, soft replication, client spreading.
func hotFleet(t *testing.T, c *corpus.Corpus, reg *telemetry.Registry) *Deployment {
	t.Helper()
	d, err := NewCustomDeployment(DeployConfig{
		R:             6,
		CacheCapacity: 400,
		CachePolicy:   core.CachePolicyHot,
		HotReplicas:   2,
		HotSpread:     true,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.InsertCorpus(c); err != nil {
		t.Fatal(err)
	}
	return d
}

// pickRefinable returns a multi-word template from the log (refinement
// needs a proper superset of a one-word base).
func pickRefinable(t *testing.T, log *corpus.QueryLog) keyword.Set {
	t.Helper()
	for _, tpl := range log.Templates() {
		if tpl.Len() >= 2 {
			return tpl
		}
	}
	t.Skip("no multi-word template in the log")
	return keyword.Set{}
}

// TestZipfSmokeAccounting replays the log on an instrumented hot fleet
// and checks the cache-hit accounting identities the core_cache_* and
// core_soft_* counters rely on: every counted query, and every soft
// replica's forward of a cache miss to the owner, consults exactly one
// server's result cache (hits+misses == queries+forwards, fleet-wide)
// and serves exactly one root T_QUERY and one search span; the hit and
// soft-serve counters reconcile with the client's own view.
func TestZipfSmokeAccounting(t *testing.T) {
	c := testCorpus(t, 4000)
	log := zipfLog(t, c)

	reg := telemetry.New(64)
	d := hotFleet(t, c, reg)

	ctx := context.Background()
	var counted, clientHits, clientSoft, clientRefine int
	for _, q := range log.Queries() {
		total := log.ResultSize(q.Template)
		if total == 0 {
			continue
		}
		res, err := d.Client.SupersetSearch(ctx, q.Keywords, total, core.SearchOptions{})
		if err != nil {
			t.Fatalf("query %v: %v", q.Keywords, err)
		}
		counted++
		if res.Stats.CacheHit {
			clientHits++
		}
		if res.Stats.SoftServed {
			clientSoft++
		}
		if res.Stats.RefineHit {
			clientRefine++
		}
	}

	snap := reg.Snapshot()
	hits := snap.Counters["core_cache_hits_total"]
	misses := snap.Counters["core_cache_misses_total"]
	forwards := snap.Counters["core_soft_forwards_total"]
	if hits+misses != uint64(counted)+forwards {
		t.Errorf("cache consultations %d+%d != %d replayed queries + %d forwards", hits, misses, counted, forwards)
	}
	if hits != uint64(clientHits) {
		t.Errorf("telemetry hits %d != client-observed hits %d", hits, clientHits)
	}
	if ops := snap.Counters[`core_ops_total{op="superset-search"}`]; ops != uint64(counted)+forwards {
		t.Errorf("superset-search ops = %d, want %d queries + %d forwards", ops, counted, forwards)
	}
	if snap.SpansTotal != uint64(counted)+forwards {
		t.Errorf("spans recorded = %d, want %d queries + %d forwards", snap.SpansTotal, counted, forwards)
	}
	if soft := snap.Counters["core_soft_serves_total"]; soft != uint64(clientSoft) {
		t.Errorf("soft serves %d != client-observed %d", soft, clientSoft)
	}
	if rh := snap.Counters["core_refine_hits_total"]; rh != uint64(clientRefine) {
		t.Errorf("refine hits %d != client-observed %d", rh, clientRefine)
	}
	if hits == 0 || clientSoft == 0 || forwards == 0 {
		t.Errorf("layer never engaged: hits=%d softServes=%d forwards=%d", hits, clientSoft, forwards)
	}
	if ff := snap.Counters["core_soft_forward_failures_total"]; ff != 0 {
		t.Errorf("%d of %d forwards failed on a healthy fleet", ff, forwards)
	}

	// The per-server snapshots must decompose the counter totals.
	var snapHits, snapMisses uint64
	for _, s := range d.Servers {
		cs := s.CacheSnapshot()
		snapHits += cs.Hits
		snapMisses += cs.Misses
	}
	if snapHits != hits || snapMisses != misses {
		t.Errorf("CacheSnapshot totals %d/%d != telemetry %d/%d", snapHits, snapMisses, hits, misses)
	}
}
