package core

import (
	"sync"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// Cache policy names accepted by ServerConfig.CachePolicy.
const (
	// CachePolicyHot is the popularity-tracked segmented-LRU cache with
	// TinyLFU-style frequency admission (the default).
	CachePolicyHot = "hot"
	// CachePolicyFIFO is the original fixed-size FIFO cache of
	// Section 4, kept for comparison studies.
	CachePolicyFIFO = "fifo"
)

// resultCache is the per-node query-result cache of Section 4
// (experiment 3): completed superset-search results keyed by
// (instance, query keyword set). Capacity is measured in object-ID
// units, matching the paper's α · |O| / 2^r sizing relative to the
// average index size per node.
//
// Accounting contract (the Fig-9 reconcile test pins it): every get on
// an enabled cache counts exactly one hit or exactly one miss, so
// hits+misses equals the number of consulted queries with no slack.
type resultCache interface {
	enabled() bool
	// get returns a cached result able to satisfy a query of the given
	// threshold: the cached traversal either exhausted the
	// subhypercube (or multicast range) or gathered at least threshold
	// matches. The predicate's class-aware cache key keeps query
	// classes from ever colliding.
	get(instance string, pred queryPred, threshold int) ([]Match, bool, bool)
	// put stores a completed query result. Implementations may decline
	// (capacity, admission policy); stored slices are cloned and
	// immutable from then on.
	put(instance string, pred queryPred, matches []Match, exhausted bool)
	// refineSource returns the complete match list of the most refined
	// exhausted cached ancestor of query (a cached K_anc ⊂ query whose
	// traversal exhausted its subcube), for Lemma 3.3 refinement
	// derivation. Only ClassSuperset entries qualify — Lemma 3.3 is a
	// superset-lattice property, so pin and prefix entries are never
	// offered as sources. The returned slice is the immutable stored
	// slice and must not be mutated.
	refineSource(instance string, query keyword.Set) ([]Match, bool)
	// invalidateSubsetsOf drops the instance's cached queries whose
	// predicate matches the canonical set key of a mutated entry (for a
	// superset query K: K ⊆ the entry's set), since the mutation can
	// alter their results.
	invalidateSubsetsOf(instance, setKey string)
	// dropRoot drops the instance's cached queries addressed to root.
	dropRoot(instance string, root hypercube.Vertex)
	// reset drops every cached entry (the sim's crash model: process
	// memory is lost). Hit/miss counters survive — they feed
	// process-lifetime telemetry, not cached state.
	reset()
	stats() (hits, misses uint64)
	snapshot() CacheSnapshot
	// len returns the number of cached queries.
	len() int
	// unitCount returns the currently stored object-ID units.
	unitCount() int
}

// newResultCache builds the cache for the given policy name; the empty
// policy selects the hot (popularity-tracked) default.
func newResultCache(policy string, capacity int) resultCache {
	if policy == CachePolicyFIFO {
		return newFIFOCache(capacity)
	}
	return newHotCache(capacity)
}

// InstanceCacheStats is one instance's slice of a cache snapshot.
type InstanceCacheStats struct {
	Instance string
	Hits     uint64
	Misses   uint64
	Entries  int
	Units    int
}

// HitRatio returns the instance's hit fraction (0 when never consulted).
func (s InstanceCacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CacheSnapshot is a point-in-time view of one server's result cache:
// totals plus the per-instance hit-ratio breakdown.
type CacheSnapshot struct {
	Policy        string
	CapacityUnits int
	Units         int
	Entries       int
	Hits          uint64
	Misses        uint64
	PerInstance   []InstanceCacheStats
}

// HitRatio returns the cache-wide hit fraction (0 when never consulted).
func (s CacheSnapshot) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// instanceCounters accumulates per-instance consultations under the
// owning cache's mutex.
type instanceCounters struct {
	hits   uint64
	misses uint64
}

// fifoCache is the original fixed-size FIFO result cache.
type fifoCache struct {
	mu       sync.Mutex
	capacity int
	units    int
	order    []string // insertion order of cache keys
	items    map[string]cachedResult
	// byInstance indexes the live cache keys of each instance so
	// invalidation walks only that instance's entries instead of the
	// whole cache (mutations holding the root-side mutex are the hot
	// path this protects).
	byInstance map[string]map[string]struct{}
	hits       uint64
	misses     uint64
	perInst    map[string]*instanceCounters
}

type cachedResult struct {
	matches   []Match
	exhausted bool
	instance  string
	pred      queryPred
}

func newFIFOCache(capacity int) *fifoCache {
	return &fifoCache{
		capacity:   capacity,
		items:      make(map[string]cachedResult),
		byInstance: make(map[string]map[string]struct{}),
		perInst:    make(map[string]*instanceCounters),
	}
}

func (c *fifoCache) enabled() bool { return c.capacity > 0 }

// cacheKey namespaces cached queries by index instance.
func cacheKey(instance, queryKey string) string {
	return instance + "\x00" + queryKey
}

func (c *fifoCache) instCounters(instance string) *instanceCounters {
	ic, ok := c.perInst[instance]
	if !ok {
		ic = &instanceCounters{}
		c.perInst[instance] = ic
	}
	return ic
}

func (c *fifoCache) get(instance string, pred queryPred, threshold int) ([]Match, bool, bool) {
	if !c.enabled() {
		return nil, false, false
	}
	c.mu.Lock()
	item, ok := c.items[pred.cacheKey(instance)]
	if !ok || (!item.exhausted && len(item.matches) < threshold) {
		c.misses++
		c.instCounters(instance).misses++
		c.mu.Unlock()
		return nil, false, false
	}
	c.hits++
	c.instCounters(instance).hits++
	c.mu.Unlock()
	// Stored match slices are immutable once published (put clones
	// before insert; no path writes to a stored slice), so the
	// defensive copy for the caller happens outside the critical
	// section — the cache mutex is a root-side serialization point,
	// and a large cached result would otherwise stall every
	// concurrent hit and invalidation behind the copy.
	return truncateCached(item.matches, item.exhausted, threshold)
}

// truncateCached applies the threshold cut shared by every cache
// policy: copy up to threshold matches, and report exhausted only when
// the cut kept the complete stored result.
func truncateCached(matches []Match, exhausted bool, threshold int) ([]Match, bool, bool) {
	n := len(matches)
	if threshold >= 0 && threshold < n {
		n = threshold
	}
	out := make([]Match, n)
	copy(out, matches)
	return out, exhausted && n == len(matches), true
}

// put stores a completed query result, evicting oldest entries until
// the capacity constraint holds. Results larger than the whole cache
// are not stored.
func (c *fifoCache) put(instance string, pred queryPred, matches []Match, exhausted bool) {
	if !c.enabled() || len(matches) > c.capacity {
		return
	}
	key := pred.cacheKey(instance)
	item := cachedResult{matches: cloneMatches(matches), exhausted: exhausted, instance: instance, pred: pred}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		// Replace in place, keeping FIFO position.
		c.units -= len(old.matches)
		c.items[key] = item
		c.units += len(matches)
	} else {
		c.items[key] = item
		c.order = append(c.order, key)
		c.indexKey(instance, key)
		c.units += len(matches)
	}
	for c.units > c.capacity && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		if item, ok := c.items[oldest]; ok {
			c.units -= len(item.matches)
			delete(c.items, oldest)
			c.unindexKey(item.instance, oldest)
		}
	}
}

func (c *fifoCache) indexKey(instance, key string) {
	keys, ok := c.byInstance[instance]
	if !ok {
		keys = make(map[string]struct{})
		c.byInstance[instance] = keys
	}
	keys[key] = struct{}{}
}

func (c *fifoCache) unindexKey(instance, key string) {
	if keys, ok := c.byInstance[instance]; ok {
		delete(keys, key)
		if len(keys) == 0 {
			delete(c.byInstance, instance)
		}
	}
}

func (c *fifoCache) refineSource(instance string, query keyword.Set) ([]Match, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		best    []Match
		bestLen = -1
		sig     = query.Signature()
	)
	for key := range c.byInstance[instance] {
		// As in hotCache.refineSource: a stray signature bit rejects a
		// non-ancestor without comparing keywords.
		item, ok := c.items[key]
		if !ok || !item.exhausted || item.pred.class != ClassSuperset || !sig.Covers(item.pred.want) {
			continue
		}
		if item.pred.set.Len() > bestLen && item.pred.set.SubsetOf(query) && !item.pred.set.Equal(query) {
			best, bestLen = item.matches, item.pred.set.Len()
		}
	}
	return best, bestLen >= 0
}

func (c *fifoCache) invalidateSubsetsOf(instance, setKey string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byInstance[instance]
	if len(keys) == 0 {
		return
	}
	// Only this instance's entries are examined; the FIFO order slice
	// keeps dropped keys and skips them lazily on eviction (the same
	// stale-key tolerance eviction already has).
	dropped := false
	for key := range keys {
		item, ok := c.items[key]
		if !ok {
			delete(keys, key)
			continue
		}
		if item.pred.matches(setKey) {
			c.units -= len(item.matches)
			delete(c.items, key)
			delete(keys, key)
			dropped = true
		}
	}
	if len(keys) == 0 {
		delete(c.byInstance, instance)
	}
	// Compact the order slice when invalidation dropped entries, so
	// long-lived servers with mutation-heavy workloads don't accrete an
	// unbounded stale tail.
	if dropped && len(c.order) > 2*len(c.items) {
		keep := c.order[:0]
		for _, key := range c.order {
			if _, ok := c.items[key]; ok {
				keep = append(keep, key)
			}
		}
		c.order = keep
	}
}

func (c *fifoCache) dropRoot(instance string, root hypercube.Vertex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.byInstance[instance] {
		if item, ok := c.items[key]; ok && item.pred.root == root {
			c.units -= len(item.matches)
			delete(c.items, key)
			c.unindexKey(instance, key)
		}
	}
}

func (c *fifoCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.units = 0
	c.order = nil
	c.items = make(map[string]cachedResult)
	c.byInstance = make(map[string]map[string]struct{})
}

func (c *fifoCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *fifoCache) snapshot() CacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CacheSnapshot{
		Policy:        CachePolicyFIFO,
		CapacityUnits: c.capacity,
		Units:         c.units,
		Entries:       len(c.items),
		Hits:          c.hits,
		Misses:        c.misses,
	}
	snap.PerInstance = perInstanceStats(c.perInst, func(instance string) (entries, units int) {
		for key := range c.byInstance[instance] {
			if item, ok := c.items[key]; ok {
				entries++
				units += len(item.matches)
			}
		}
		return entries, units
	})
	return snap
}

// perInstanceStats assembles the per-instance snapshot rows in sorted
// instance order; fill reports the instance's live entry/unit totals.
func perInstanceStats(perInst map[string]*instanceCounters, fill func(instance string) (entries, units int)) []InstanceCacheStats {
	if len(perInst) == 0 {
		return nil
	}
	out := make([]InstanceCacheStats, 0, len(perInst))
	for instance, ic := range perInst {
		entries, units := fill(instance)
		out = append(out, InstanceCacheStats{
			Instance: instance,
			Hits:     ic.hits,
			Misses:   ic.misses,
			Entries:  entries,
			Units:    units,
		})
	}
	sortInstanceStats(out)
	return out
}

func sortInstanceStats(s []InstanceCacheStats) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Instance < s[j-1].Instance; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (c *fifoCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *fifoCache) unitCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.units
}

func cloneMatches(ms []Match) []Match {
	out := make([]Match, len(ms))
	copy(out, ms)
	return out
}
