package core

import (
	"context"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// supersetPred builds a ClassSuperset predicate from an explicit
// (cache key, parsed set) pair. The pair is usually (set.Key(), set),
// but the cache layer allows arbitrary keys, so both travel. The
// predicate matches table keys against the key, so a test of
// invalidation passes the set's own key.
func supersetPred(queryKey string, query keyword.Set) queryPred {
	return queryPred{class: ClassSuperset, key: queryKey, set: query, want: query.Signature()}
}

func TestCacheHitServesRepeatedQuery(t *testing.T) {
	d := newDeployment(t, 9, 4, 1000)
	ctx := context.Background()
	corpus(t, d, 200, 51)
	q := keyword.NewSet("isp")

	first, err := d.client.SupersetSearch(ctx, q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit {
		t.Error("first query claimed a cache hit")
	}
	second, err := d.client.SupersetSearch(ctx, q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if second.Stats.NodesContacted != 1 {
		t.Errorf("cache hit contacted %d nodes, want 1 (root only)", second.Stats.NodesContacted)
	}
	if !equalStrings(matchIDs(second.Matches), matchIDs(first.Matches)) {
		t.Error("cached result differs from original")
	}
}

func TestCacheServesSmallerThreshold(t *testing.T) {
	d := newDeployment(t, 9, 4, 1000)
	ctx := context.Background()
	corpus(t, d, 200, 53)
	q := keyword.NewSet("news")
	if _, err := d.client.SupersetSearch(ctx, q, 10, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := d.client.SupersetSearch(ctx, q, 3, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Error("smaller threshold should be served from cache")
	}
	if len(res.Matches) != 3 {
		t.Errorf("got %d matches, want 3", len(res.Matches))
	}
}

func TestCacheMissOnLargerThreshold(t *testing.T) {
	d := newDeployment(t, 9, 4, 1000)
	ctx := context.Background()
	objects := corpus(t, d, 200, 57)
	q := keyword.NewSet("news")
	all := bruteForce(objects, q)
	if len(all) < 6 {
		t.Fatalf("sparse corpus: %d", len(all))
	}
	if _, err := d.client.SupersetSearch(ctx, q, 3, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := d.client.SupersetSearch(ctx, q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("larger threshold served from a partial cache entry")
	}
	if len(res.Matches) != 5 {
		t.Errorf("got %d matches, want 5", len(res.Matches))
	}
}

func TestCacheExhaustedEntryServesAnyThreshold(t *testing.T) {
	d := newDeployment(t, 9, 4, 1000)
	ctx := context.Background()
	objects := corpus(t, d, 200, 59)
	q := keyword.NewSet("mp3")
	all := bruteForce(objects, q)
	if _, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Error("exhausted cached entry should satisfy any threshold")
	}
	if len(res.Matches) != len(all) {
		t.Errorf("got %d, want %d", len(res.Matches), len(all))
	}
	if !res.Exhausted {
		t.Error("cached exhaustive result lost Exhausted flag")
	}
}

func TestCacheInvalidatedByInsert(t *testing.T) {
	d := newDeployment(t, 9, 4, 1000)
	ctx := context.Background()
	q := keyword.NewSet("cachetest")
	if _, err := d.client.Insert(ctx, obj("a", "cachetest", "one")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{}); err != nil {
		t.Fatal(err)
	}

	// New matching object. Its index entry lands on some node; the
	// ROOT's cached result must be invalidated only if the entry lives
	// on the root server. To make the test deterministic, insert an
	// object with exactly the query keyword set (which is always
	// indexed at the root vertex itself).
	if _, err := d.client.Insert(ctx, obj("b", "cachetest")); err != nil {
		t.Fatal(err)
	}
	res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := matchIDs(res.Matches)
	if !equalStrings(got, []string{"a", "b"}) {
		t.Errorf("after insert, matches = %v, want [a b]", got)
	}
}

func TestCacheBypass(t *testing.T) {
	d := newDeployment(t, 9, 4, 1000)
	ctx := context.Background()
	corpus(t, d, 100, 61)
	q := keyword.NewSet("isp")
	if _, err := d.client.SupersetSearch(ctx, q, 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := d.client.SupersetSearch(ctx, q, 5, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("NoCache query reported a cache hit")
	}
}

func TestFIFOCacheEviction(t *testing.T) {
	c := newResultCache(CachePolicyFIFO, 10)
	mk := func(n int, tag string) []Match {
		ms := make([]Match, n)
		for i := range ms {
			ms[i] = Match{ObjectID: tag + strconv.Itoa(i)}
		}
		return ms
	}
	c.put("main", supersetPred("q1", keyword.NewSet("a")), mk(4, "a"), true)
	c.put("main", supersetPred("q2", keyword.NewSet("b")), mk(4, "b"), true)
	c.put("main", supersetPred("q3", keyword.NewSet("c")), mk(4, "c"), true) // evicts q1
	if _, _, ok := c.get("main", supersetPred("q1", keyword.Set{}), 1); ok {
		t.Error("q1 should have been evicted (FIFO)")
	}
	if _, _, ok := c.get("main", supersetPred("q2", keyword.Set{}), 1); !ok {
		t.Error("q2 should survive")
	}
	if _, _, ok := c.get("main", supersetPred("q3", keyword.Set{}), 1); !ok {
		t.Error("q3 should survive")
	}
}

func TestFIFOCacheOversizedResultNotStored(t *testing.T) {
	c := newResultCache(CachePolicyFIFO, 3)
	ms := make([]Match, 5)
	c.put("main", supersetPred("big", keyword.NewSet("a")), ms, true)
	if _, _, ok := c.get("main", supersetPred("big", keyword.Set{}), 1); ok {
		t.Error("oversized result stored")
	}
}

func TestFIFOCacheDisabled(t *testing.T) {
	c := newResultCache(CachePolicyFIFO, 0)
	c.put("main", supersetPred("q", keyword.NewSet("a")), []Match{{ObjectID: "x"}}, true)
	if _, _, ok := c.get("main", supersetPred("q", keyword.Set{}), 1); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestFIFOCacheInvalidateSubsets(t *testing.T) {
	c := newResultCache(CachePolicyFIFO, 100)
	c.put("main", supersetPred("a", keyword.NewSet("a")), []Match{{ObjectID: "1"}}, true)
	c.put("main", supersetPred("a\x1fb", keyword.NewSet("a", "b")), []Match{{ObjectID: "2"}}, true)
	c.put("main", supersetPred("c", keyword.NewSet("c")), []Match{{ObjectID: "3"}}, true)
	// An index change under {a, b, x} affects queries {a} and {a,b}
	// but not {c}.
	c.invalidateSubsetsOf("main", keyword.NewSet("a", "b", "x").Key())
	if _, _, ok := c.get("main", supersetPred("a", keyword.Set{}), 1); ok {
		t.Error("query {a} should be invalidated")
	}
	if _, _, ok := c.get("main", supersetPred("a\x1fb", keyword.Set{}), 1); ok {
		t.Error("query {a,b} should be invalidated")
	}
	if _, _, ok := c.get("main", supersetPred("c", keyword.Set{}), 1); !ok {
		t.Error("query {c} should survive")
	}
	if c.len() != 1 {
		t.Errorf("cache len = %d, want 1", c.len())
	}
}

// Regression for the per-instance secondary index: an invalidation
// event in one index instance must only scan — and only drop — that
// instance's entries; another instance caching the same query key is
// untouched.
func TestFIFOCacheInvalidateInstanceScoped(t *testing.T) {
	c := newResultCache(CachePolicyFIFO, 100)
	c.put("main", supersetPred("a", keyword.NewSet("a")), []Match{{ObjectID: "m"}}, true)
	c.put("main-replica-1", supersetPred("a", keyword.NewSet("a")), []Match{{ObjectID: "r"}}, true)
	c.invalidateSubsetsOf("main", keyword.NewSet("a", "b").Key())
	if _, _, ok := c.get("main", supersetPred("a", keyword.Set{}), 1); ok {
		t.Error("main-instance entry should be invalidated")
	}
	got, _, ok := c.get("main-replica-1", supersetPred("a", keyword.Set{}), 1)
	if !ok {
		t.Fatal("replica-instance entry wrongly invalidated")
	}
	if len(got) != 1 || got[0].ObjectID != "r" {
		t.Errorf("replica-instance entry corrupted: %v", got)
	}
	// And the reverse event leaves main's (already gone) state alone
	// while dropping the replica's.
	c.invalidateSubsetsOf("main-replica-1", keyword.NewSet("a").Key())
	if c.len() != 0 {
		t.Errorf("cache len = %d after both invalidations, want 0", c.len())
	}
}

func TestFIFOCacheReplaceKeepsUnits(t *testing.T) {
	c := newResultCache(CachePolicyFIFO, 10)
	c.put("main", supersetPred("q", keyword.NewSet("a")), make([]Match, 6), false)
	c.put("main", supersetPred("q", keyword.NewSet("a")), make([]Match, 2), true)
	if c.units != 2 {
		t.Errorf("units = %d after replace, want 2", c.units)
	}
	got, exhausted, ok := c.get("main", supersetPred("q", keyword.Set{}), 2)
	if !ok || !exhausted || len(got) != 2 {
		t.Errorf("get after replace = %d matches, exhausted=%v, ok=%v", len(got), exhausted, ok)
	}
}

// A key cached again after an invalidation or a dropRoot is the newest
// entry, not one evicted at the position its dropped predecessor held.
func TestFIFOCacheReinsertAfterDropIsNewest(t *testing.T) {
	for _, drop := range []string{"invalidate", "dropRoot"} {
		t.Run(drop, func(t *testing.T) {
			c := newResultCache(CachePolicyFIFO, 4)
			put := func(w string) {
				p := supersetPred(w, keyword.NewSet(w))
				p.root = 1
				c.put("main", p, []Match{{ObjectID: w}}, true)
			}
			put("x")
			put("a")
			if drop == "invalidate" {
				c.invalidateSubsetsOf("main", keyword.NewSet("a").Key())
			} else {
				c.dropRoot("main", 1) // drops x too
			}
			put("x")
			put("b")
			put("a")
			put("c")
			put("d") // evicts x
			put("e") // evicts b, the oldest entry left
			for w, want := range map[string]bool{"x": false, "b": false, "a": true, "c": true, "d": true, "e": true} {
				if _, _, ok := c.get("main", supersetPred(w, keyword.Set{}), 1); ok != want {
					t.Errorf("%s cached = %v, want %v", w, ok, want)
				}
			}
		})
	}
}

func TestCacheHitCountersAdvance(t *testing.T) {
	d := newDeployment(t, 9, 2, 1000)
	ctx := context.Background()
	corpus(t, d, 100, 63)
	q := keyword.NewSet("isp")
	d.client.SupersetSearch(ctx, q, 5, SearchOptions{})
	d.client.SupersetSearch(ctx, q, 5, SearchOptions{})
	rootSrv := d.serverFor(d.hasher.Vertex(q))
	hits, misses := rootSrv.CacheStats()
	if hits == 0 {
		t.Error("no cache hits recorded")
	}
	if misses == 0 {
		t.Error("no cache misses recorded")
	}
}

// refineSource picks a Lemma 3.3 source the same way in both caches:
// the most refined exhausted superset ancestor of the instance, never
// the query itself, and never a set that only shares the query's
// signature bits.
func TestRefineSource(t *testing.T) {
	query := keyword.NewSet("a", "b", "c", "d", "e", "f", "g", "h")
	// A keyword outside the query whose signature bits all lie inside
	// the query's: {a, stray} passes the signature pre-test yet is no
	// ancestor.
	stray := ""
	for i := 0; stray == ""; i++ {
		w := "w" + strconv.Itoa(i)
		if query.Signature().Covers(keyword.KeySignature(w)) {
			stray = w
		}
	}
	one := func(id string) []Match { return []Match{{ObjectID: id}} }
	sup := func(words ...string) queryPred {
		s := keyword.NewSet(words...)
		return supersetPred(s.Key(), s)
	}
	type entry struct {
		instance  string
		pred      queryPred
		id        string
		exhausted bool
	}
	cases := []struct {
		name    string
		entries []entry
		want    string // the chosen source's object ID, "" for none
	}{
		{"most refined ancestor", []entry{
			{DefaultInstance, sup("a"), "a", true},
			{DefaultInstance, sup("a", "b", "c"), "abc", true},
			{DefaultInstance, sup("a", "b"), "ab", true},
		}, "abc"},
		{"query itself excluded", []entry{
			{DefaultInstance, sup("a"), "a", true},
			{DefaultInstance, supersetPred(query.Key(), query), "self", true},
		}, "a"},
		{"non-exhausted skipped", []entry{
			{DefaultInstance, sup("a"), "a", true},
			{DefaultInstance, sup("a", "b"), "ab", false},
		}, "a"},
		{"pin and prefix skipped", []entry{
			{DefaultInstance, predFor(ClassPin, keyword.NewSet("a", "b").Key()), "pin", true},
			{DefaultInstance, predFor(ClassPrefix, "a"), "prefix", true},
		}, ""},
		{"other instance skipped", []entry{
			{"other", sup("a", "b"), "other", true},
			{DefaultInstance, sup("b"), "b", true},
		}, "b"},
		{"signature-only match rejected", []entry{
			{DefaultInstance, sup("a", stray), "stray", true},
		}, ""},
	}
	for _, policy := range []string{CachePolicyHot, CachePolicyFIFO} {
		for _, tc := range cases {
			t.Run(policy+"/"+tc.name, func(t *testing.T) {
				c := newResultCache(policy, 1000)
				for _, e := range tc.entries {
					c.put(e.instance, e.pred, one(e.id), e.exhausted)
				}
				got, ok := c.refineSource(DefaultInstance, query)
				switch {
				case tc.want == "" && ok:
					t.Errorf("refineSource chose %v, want none", got)
				case tc.want != "" && (!ok || len(got) != 1 || got[0].ObjectID != tc.want):
					t.Errorf("refineSource = %v, %v; want %q", got, ok, tc.want)
				}
			})
		}
	}
}

// Instance names arrive unvalidated in remote queries: a flood of fresh
// names must not grow one counter row each, and the rows the overflow
// folds together must still sum exactly to the totals.
func TestCacheInstanceRowsBounded(t *testing.T) {
	for _, policy := range []string{CachePolicyHot, CachePolicyFIFO} {
		t.Run(policy, func(t *testing.T) {
			c := newResultCache(policy, 100)
			set := keyword.NewSet("q")
			const names = 10000
			for i := 0; i < names; i++ {
				inst := "flood" + strconv.Itoa(i)
				c.get(inst, supersetPred(set.Key(), set), 1)
				if i%100 == 0 {
					c.put(inst, supersetPred(set.Key(), set), []Match{{ObjectID: inst}}, true)
					c.get(inst, supersetPred(set.Key(), set), 1)
				}
			}
			snap := c.snapshot()
			if n := len(snap.PerInstance); n > maxInstanceRows+1 {
				t.Errorf("%d per-instance rows after %d instance names, want at most %d", n, names, maxInstanceRows+1)
			}
			if got := snap.Hits + snap.Misses; got != names+names/100 {
				t.Errorf("hits+misses = %d, want %d", got, names+names/100)
			}
			if policy == CachePolicyFIFO && (snap.Hits != names/100 || snap.Entries != names/100) {
				t.Errorf("fifo hits=%d entries=%d, want %d each", snap.Hits, snap.Entries, names/100)
			}
			var sum InstanceCacheStats
			for _, row := range snap.PerInstance {
				sum.Hits += row.Hits
				sum.Misses += row.Misses
				sum.Entries += row.Entries
				sum.Units += row.Units
			}
			if sum.Hits != snap.Hits || sum.Misses != snap.Misses || sum.Entries != snap.Entries || sum.Units != snap.Units {
				t.Errorf("row sums hits/misses/entries/units %d/%d/%d/%d != totals %d/%d/%d/%d",
					sum.Hits, sum.Misses, sum.Entries, sum.Units, snap.Hits, snap.Misses, snap.Entries, snap.Units)
			}
		})
	}
}

// TestEmptyAnswersAreEvicted: an answer with no matches costs one unit,
// so 100 000 distinct empty answers leave a 16-unit cache holding at
// most 16 entries under either policy. Charged nothing, they were never
// evicted and the cache grew without bound.
func TestEmptyAnswersAreEvicted(t *testing.T) {
	for _, policy := range []string{CachePolicyFIFO, CachePolicyHot} {
		c := newResultCache(policy, 16)
		for i := 0; i < 100000; i++ {
			c.put("main", predFor(ClassPin, "k"+strconv.Itoa(i)), nil, true)
		}
		if c.len() > 16 || c.unitCount() > 16 {
			t.Errorf("%s: len=%d units=%d after 100000 empty answers, want at most 16", policy, c.len(), c.unitCount())
		}
	}
}
