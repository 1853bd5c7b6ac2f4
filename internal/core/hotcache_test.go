package core

import (
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
)

func hotMatches(n int, tag string) []Match {
	ms := make([]Match, n)
	for i := range ms {
		ms[i] = Match{ObjectID: tag + strconv.Itoa(i)}
	}
	return ms
}

// A burst of one-off tail entries must not displace popular residents:
// admission rejects a candidate the sketch estimates to be colder than
// any would-be victim.
func TestHotCacheAdmissionProtectsPopularEntries(t *testing.T) {
	c := newResultCache(CachePolicyHot, 8)
	c.put("main", supersetPred("qa", keyword.NewSet("a")), hotMatches(4, "a"), true)
	c.put("main", supersetPred("qb", keyword.NewSet("b")), hotMatches(4, "b"), true)
	// Make both residents popular.
	for i := 0; i < 10; i++ {
		c.get("main", supersetPred("qa", keyword.Set{}), 1)
		c.get("main", supersetPred("qb", keyword.Set{}), 1)
	}
	// A one-off candidate (sketch count 0) needs to evict and must lose
	// the admission contest.
	c.put("main", supersetPred("cold", keyword.NewSet("c")), hotMatches(4, "c"), true)
	if _, _, ok := c.get("main", supersetPred("cold", keyword.Set{}), 1); ok {
		t.Error("one-off candidate displaced popular residents")
	}
	if _, _, ok := c.get("main", supersetPred("qa", keyword.Set{}), 1); !ok {
		t.Error("popular entry qa evicted by tail traffic")
	}
	if _, _, ok := c.get("main", supersetPred("qb", keyword.Set{}), 1); !ok {
		t.Error("popular entry qb evicted by tail traffic")
	}
}

// A candidate that becomes more popular than a resident is admitted,
// displacing the coldest victim.
func TestHotCacheAdmissionAcceptsHotterCandidate(t *testing.T) {
	c := newResultCache(CachePolicyHot, 8)
	c.put("main", supersetPred("qa", keyword.NewSet("a")), hotMatches(4, "a"), true)
	c.put("main", supersetPred("qb", keyword.NewSet("b")), hotMatches(4, "b"), true)
	c.get("main", supersetPred("qa", keyword.Set{}), 1) // qa warmer than qb
	c.get("main", supersetPred("qa", keyword.Set{}), 1)
	// The candidate's misses feed the sketch until it beats the victims.
	for i := 0; i < 30; i++ {
		c.get("main", supersetPred("hot", keyword.Set{}), 1)
	}
	c.put("main", supersetPred("hot", keyword.NewSet("h")), hotMatches(4, "h"), true)
	if _, _, ok := c.get("main", supersetPred("hot", keyword.Set{}), 1); !ok {
		t.Fatal("frequently-requested candidate was not admitted")
	}
	if c.unitCount() > 8 {
		t.Errorf("units %d exceed capacity 8 after admission", c.unitCount())
	}
}

// Re-referenced entries graduate to the protected segment and survive a
// stream of one-off insertions that churns probation.
func TestHotCacheProtectedSegmentSurvivesScan(t *testing.T) {
	c := newResultCache(CachePolicyHot, 10)
	c.put("main", supersetPred("hot", keyword.NewSet("h")), hotMatches(2, "h"), true)
	c.get("main", supersetPred("hot", keyword.Set{}), 1) // graduate to protected
	for i := 0; i < 20; i++ {
		key := "scan" + strconv.Itoa(i)
		c.put("main", supersetPred(key, keyword.NewSet(key)), hotMatches(2, key), true)
		c.get("main", supersetPred(key, keyword.Set{}), 1)
	}
	if _, _, ok := c.get("main", supersetPred("hot", keyword.Set{}), 1); !ok {
		t.Error("protected entry evicted by scan traffic")
	}
}

func TestHotCacheOversizedResultNotStored(t *testing.T) {
	c := newResultCache(CachePolicyHot, 3)
	c.put("main", supersetPred("big", keyword.NewSet("a")), hotMatches(5, "x"), true)
	if _, _, ok := c.get("main", supersetPred("big", keyword.Set{}), 1); ok {
		t.Error("oversized result stored")
	}
}

func TestHotCacheDisabled(t *testing.T) {
	c := newResultCache(CachePolicyHot, 0)
	c.put("main", supersetPred("q", keyword.NewSet("a")), hotMatches(1, "x"), true)
	if _, _, ok := c.get("main", supersetPred("q", keyword.Set{}), 1); ok {
		t.Error("disabled cache returned a hit")
	}
}

// Invalidation is instance-scoped for the hot policy exactly as for the
// FIFO policy: a mutation event in one instance must not clear another
// instance's cached results for the same query.
func TestHotCacheInvalidateInstanceScoped(t *testing.T) {
	c := newResultCache(CachePolicyHot, 100)
	c.put("main", supersetPred("a", keyword.NewSet("a")), hotMatches(1, "m"), true)
	c.put("other", supersetPred("a", keyword.NewSet("a")), hotMatches(1, "o"), true)
	c.invalidateSubsetsOf("main", keyword.NewSet("a", "b").Key())
	if _, _, ok := c.get("main", supersetPred("a", keyword.Set{}), 1); ok {
		t.Error("main-instance entry should be invalidated")
	}
	if _, _, ok := c.get("other", supersetPred("a", keyword.Set{}), 1); !ok {
		t.Error("other-instance entry wrongly invalidated")
	}
}

// The hot policy also honors the subset-closure semantics (a change
// under set S invalidates every cached query that is a subset of S).
func TestHotCacheInvalidateSubsets(t *testing.T) {
	c := newResultCache(CachePolicyHot, 100)
	c.put("main", supersetPred("a", keyword.NewSet("a")), hotMatches(1, "1"), true)
	c.put("main", supersetPred("a\x1fb", keyword.NewSet("a", "b")), hotMatches(1, "2"), true)
	c.put("main", supersetPred("c", keyword.NewSet("c")), hotMatches(1, "3"), true)
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
}

// The per-instance snapshot decomposes the cache-wide totals exactly.
func TestHotCacheSnapshotPerInstance(t *testing.T) {
	c := newResultCache(CachePolicyHot, 100)
	c.put("main", supersetPred("qa", keyword.NewSet("a")), hotMatches(2, "m"), true)
	c.put("aux", supersetPred("qb", keyword.NewSet("b")), hotMatches(3, "x"), true)
	c.get("main", supersetPred("qa", keyword.Set{}), 1)   // hit
	c.get("main", supersetPred("nope", keyword.Set{}), 1) // miss
	c.get("aux", supersetPred("qb", keyword.Set{}), 1)    // hit
	snap := c.snapshot()
	if snap.Policy != CachePolicyHot {
		t.Errorf("policy %q", snap.Policy)
	}
	if snap.Hits != 2 || snap.Misses != 1 {
		t.Errorf("totals hits=%d misses=%d, want 2/1", snap.Hits, snap.Misses)
	}
	var sumH, sumM uint64
	var sumEntries, sumUnits int
	for _, inst := range snap.PerInstance {
		sumH += inst.Hits
		sumM += inst.Misses
		sumEntries += inst.Entries
		sumUnits += inst.Units
	}
	if sumH != snap.Hits || sumM != snap.Misses {
		t.Errorf("per-instance hit/miss sums %d/%d != totals %d/%d", sumH, sumM, snap.Hits, snap.Misses)
	}
	if sumEntries != snap.Entries || sumUnits != snap.Units {
		t.Errorf("per-instance entry/unit sums %d/%d != totals %d/%d", sumEntries, sumUnits, snap.Entries, snap.Units)
	}
}
