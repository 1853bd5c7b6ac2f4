package core

import (
	"container/list"
	"slices"
	"strings"
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
// (experiment 3): completed query results keyed by (instance, query
// predicate). Capacity is measured in object-ID units, matching the
// paper's α · |O| / 2^r sizing relative to the average index size per
// node: the hit ratio is won by choosing what to keep, not by growing.
// An answer with no matches costs one unit, so empty answers are
// evicted like any other.
//
// One structure serves both policies. Under the hot policy it is a
// segmented LRU (probation + protected) with TinyLFU-style frequency
// admission. The paper's workload footnote — the top-10 queries carry
// over 60 % of daily volume — means FIFO's weakness is precisely the
// hot head: a burst of one-off tail queries streams through the cache
// and evicts the popular entries that earn nearly all hits. Here every
// consultation (hit or miss) feeds a compact count-min sketch, and an
// entry may evict a resident victim only when the sketch estimates it
// to be more popular than that victim. Entries that are re-referenced
// graduate from the probation segment to the protected segment, so
// scan-like tail traffic is confined to probation.
//
// The FIFO policy is the same structure with admission off: no sketch,
// no touch on a hit, one segment (probation, in insertion order). A new
// key goes to the front and the oldest entries are evicted from the
// back; a replaced key keeps its position.
//
// Everything is deterministic: no clocks, no randomness — the same
// sequence of consultations and stores produces the same cache state,
// which the promotion-determinism test and the policy trace golden pin.
//
// Accounting contract (the Fig-9 reconcile test pins it): every get on
// an enabled cache counts exactly one hit or exactly one miss, so
// hits+misses equals the number of consulted queries with no slack.
type resultCache struct {
	mu       sync.Mutex
	capacity int

	units     int
	items     map[string]*cacheEntry
	probation *list.List // front = most recent
	protected *list.List
	protUnits int
	// sketch is the admission filter of the hot policy; nil selects
	// FIFO.
	sketch *cmSketch

	byInstance map[string]map[string]*cacheEntry

	hits    uint64
	misses  uint64
	perInst map[string]*instanceCounters
	// overflow counts the consultations of instances past the first
	// maxInstanceRows: instance names arrive unvalidated in remote
	// queries, so one row per name would grow without bound.
	overflow instanceCounters
}

// hotProtectedFrac is the fraction of capacity reserved for the
// protected segment (the Caffeine/W-TinyLFU split).
const hotProtectedFrac = 0.8

// maxInstanceRows bounds the per-instance counter rows; further
// instances fold into one snapshot row named overflowInstance.
const maxInstanceRows = 64

const overflowInstance = "(other)"

type cacheEntry struct {
	key       string
	instance  string
	pred      queryPred
	matches   []Match
	exhausted bool
	protected bool
	elem      *list.Element
}

// entryUnits is what an answer of these matches costs the cache: one
// unit per object ID, and at least one.
func entryUnits(matches []Match) int { return max(1, len(matches)) }

func (e *cacheEntry) units() int { return entryUnits(e.matches) }

// instanceCounters accumulates per-instance consultations under the
// owning cache's mutex.
type instanceCounters struct {
	hits   uint64
	misses uint64
}

// newResultCache builds the cache for the given policy name; the empty
// policy selects the hot (popularity-tracked) default.
func newResultCache(policy string, capacity int) *resultCache {
	c := &resultCache{
		capacity:   capacity,
		items:      make(map[string]*cacheEntry),
		probation:  list.New(),
		protected:  list.New(),
		byInstance: make(map[string]map[string]*cacheEntry),
		perInst:    make(map[string]*instanceCounters),
	}
	if policy != CachePolicyFIFO {
		c.sketch = newCMSketch(capacity)
	}
	return c
}

func (c *resultCache) enabled() bool { return c.capacity > 0 }

// cacheKey namespaces cached queries by index instance.
func cacheKey(instance, queryKey string) string {
	return instance + "\x00" + queryKey
}

func (c *resultCache) instCounters(instance string) *instanceCounters {
	ic, ok := c.perInst[instance]
	if !ok {
		if len(c.perInst) >= maxInstanceRows {
			return &c.overflow
		}
		ic = &instanceCounters{}
		c.perInst[instance] = ic
	}
	return ic
}

// get returns a cached result able to satisfy a query of the given
// threshold: the cached traversal either exhausted the subhypercube (or
// multicast range) or gathered at least threshold matches. The
// predicate's class-aware cache key keeps query classes from ever
// colliding.
func (c *resultCache) get(instance string, pred queryPred, threshold int) ([]Match, bool, bool) {
	if !c.enabled() {
		return nil, false, false
	}
	key := pred.cacheKey(instance)
	c.mu.Lock()
	if c.sketch != nil {
		c.sketch.increment(key)
	}
	e, ok := c.items[key]
	if !ok || (!e.exhausted && len(e.matches) < threshold) {
		c.misses++
		c.instCounters(instance).misses++
		c.mu.Unlock()
		return nil, false, false
	}
	c.hits++
	c.instCounters(instance).hits++
	if c.sketch != nil {
		c.touchLocked(e)
	}
	matches, exhausted := e.matches, e.exhausted
	c.mu.Unlock()
	// Stored match slices are immutable once published (put clones
	// before insert; no path writes to a stored slice), so the
	// defensive copy for the caller happens outside the critical
	// section — the cache mutex is a root-side serialization point,
	// and a large cached result would otherwise stall every
	// concurrent hit and invalidation behind the copy.
	return truncateCached(matches, exhausted, threshold)
}

// truncateCached applies the threshold cut of a cached answer: copy up
// to threshold matches, and report exhausted only when the cut kept the
// complete stored result.
func truncateCached(matches []Match, exhausted bool, threshold int) ([]Match, bool, bool) {
	n := len(matches)
	if threshold >= 0 && threshold < n {
		n = threshold
	}
	out := make([]Match, n)
	copy(out, matches)
	return out, exhausted && n == len(matches), true
}

// touchLocked records a re-reference: probation entries graduate to
// protected, protected entries move to the segment front. Graduation
// may push protected over its share; its LRU tail then demotes back to
// probation (never straight out of the cache).
func (c *resultCache) touchLocked(e *cacheEntry) {
	if e.protected {
		c.protected.MoveToFront(e.elem)
		return
	}
	c.probation.Remove(e.elem)
	e.protected = true
	e.elem = c.protected.PushFront(e)
	c.protUnits += e.units()
	limit := int(hotProtectedFrac * float64(c.capacity))
	for c.protUnits > limit && c.protected.Len() > 1 {
		tail := c.protected.Back()
		v := tail.Value.(*cacheEntry)
		c.protected.Remove(tail)
		v.protected = false
		v.elem = c.probation.PushFront(v)
		c.protUnits -= v.units()
	}
}

// put stores a completed query result; stored slices are cloned and
// immutable from then on. Results larger than the whole cache are not
// stored, and under the hot policy a new key that would need to evict
// is stored only if it wins the admission contest.
func (c *resultCache) put(instance string, pred queryPred, matches []Match, exhausted bool) {
	cost := entryUnits(matches)
	if !c.enabled() || cost > c.capacity {
		return
	}
	key := pred.cacheKey(instance)
	cloned := cloneMatches(matches)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		// Replace in place, keeping segment position.
		c.units += cost - e.units()
		if e.protected {
			c.protUnits += cost - e.units()
		}
		e.matches, e.exhausted, e.pred = cloned, exhausted, pred
		c.evictLocked()
		return
	}
	if c.sketch != nil {
		// Admission contest: the candidate may only displace victims
		// the sketch estimates to be less popular than itself.
		if need := c.units + cost - c.capacity; need > 0 && !c.admitLocked(key, need) {
			return
		}
	}
	e := &cacheEntry{key: key, instance: instance, pred: pred, matches: cloned, exhausted: exhausted}
	e.elem = c.probation.PushFront(e)
	c.items[key] = e
	c.units += cost
	keys, ok := c.byInstance[instance]
	if !ok {
		keys = make(map[string]*cacheEntry)
		c.byInstance[instance] = keys
	}
	keys[key] = e
	// FIFO makes room here, oldest first; admission already did.
	c.evictLocked()
}

// admitLocked decides a full-cache insertion: walk would-be victims
// (probation LRU first, then protected LRU) until `need` units are
// covered; if any victim is at least as popular as the candidate, the
// candidate is rejected and nothing is evicted. Otherwise the victims
// are evicted and the insert proceeds.
func (c *resultCache) admitLocked(candidateKey string, need int) bool {
	candFreq := c.sketch.estimate(candidateKey)
	var victims []*cacheEntry
	covered := 0
	scan := func(l *list.List) bool {
		for el := l.Back(); el != nil && covered < need; el = el.Prev() {
			v := el.Value.(*cacheEntry)
			if c.sketch.estimate(v.key) >= candFreq {
				return false
			}
			victims = append(victims, v)
			covered += v.units()
		}
		return true
	}
	if !scan(c.probation) {
		return false
	}
	if covered < need && !scan(c.protected) {
		return false
	}
	if covered < need {
		return false
	}
	for _, v := range victims {
		c.removeLocked(v)
	}
	return true
}

// evictLocked drops LRU victims (probation first) until the capacity
// constraint holds — the unconditional form used by FIFO and by
// replacement growth, where there is no admission contest.
func (c *resultCache) evictLocked() {
	for c.units > c.capacity {
		var victim *cacheEntry
		if el := c.probation.Back(); el != nil {
			victim = el.Value.(*cacheEntry)
		} else if el := c.protected.Back(); el != nil {
			victim = el.Value.(*cacheEntry)
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
	}
}

func (c *resultCache) removeLocked(e *cacheEntry) {
	if e.protected {
		c.protected.Remove(e.elem)
		c.protUnits -= e.units()
	} else {
		c.probation.Remove(e.elem)
	}
	c.units -= e.units()
	delete(c.items, e.key)
	if keys, ok := c.byInstance[e.instance]; ok {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byInstance, e.instance)
		}
	}
}

// refineSource returns the complete match list of the most refined
// exhausted cached ancestor of query (a cached K_anc ⊂ query whose
// traversal exhausted its subcube), for Lemma 3.3 refinement
// derivation. Only ClassSuperset entries qualify — Lemma 3.3 is a
// superset-lattice property, so pin and prefix entries are never
// offered as sources. The returned slice is the immutable stored slice
// and must not be mutated.
func (c *resultCache) refineSource(instance string, query keyword.Set) ([]Match, bool) {
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
	for _, e := range c.byInstance[instance] {
		// An ancestor's signature bits are all in the query's
		// (table.scan's test), so a stray bit rejects e without
		// comparing keywords.
		if !e.exhausted || e.pred.class != ClassSuperset || !sig.Covers(e.pred.want) {
			continue
		}
		if e.pred.set.Len() > bestLen && e.pred.set.SubsetOf(query) && !e.pred.set.Equal(query) {
			best, bestLen = e.matches, e.pred.set.Len()
		}
	}
	return best, bestLen >= 0
}

// invalidateSubsetsOf drops the instance's cached queries whose
// predicate matches the canonical set key of a mutated entry (for a
// superset query K: K ⊆ the entry's set), since the mutation can alter
// their results. Only that instance's entries are examined.
func (c *resultCache) invalidateSubsetsOf(instance, setKey string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byInstance[instance]
	if len(keys) == 0 {
		return
	}
	var drop []*cacheEntry
	for _, e := range keys {
		if e.pred.matches(setKey) {
			drop = append(drop, e)
		}
	}
	for _, e := range drop {
		c.removeLocked(e)
	}
}

// dropRoot drops the instance's cached queries addressed to root.
func (c *resultCache) dropRoot(instance string, root hypercube.Vertex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byInstance[instance] {
		if e.pred.root == root {
			c.removeLocked(e)
		}
	}
}

// reset drops every cached entry (the sim's crash model: process memory
// is lost). Hit/miss counters survive — they feed process-lifetime
// telemetry, not cached state.
func (c *resultCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.units = 0
	c.protUnits = 0
	c.items = make(map[string]*cacheEntry)
	c.probation = list.New()
	c.protected = list.New()
	c.byInstance = make(map[string]map[string]*cacheEntry)
	if c.sketch != nil {
		c.sketch = newCMSketch(c.capacity)
	}
}

func (c *resultCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
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
// totals plus the per-instance hit-ratio breakdown, whose rows sum to
// the totals. Rows are in instance order; a cache consulted for more
// than 64 instances folds the rest into one last row named "(other)".
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

func (c *resultCache) snapshot() CacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	policy := CachePolicyFIFO
	if c.sketch != nil {
		policy = CachePolicyHot
	}
	return CacheSnapshot{
		Policy:        policy,
		CapacityUnits: c.capacity,
		Units:         c.units,
		Entries:       len(c.items),
		Hits:          c.hits,
		Misses:        c.misses,
		PerInstance:   c.perInstanceStats(),
	}
}

// perInstanceStats assembles the per-instance snapshot rows in instance
// order. Every instance without a counter row of its own — consulted
// past maxInstanceRows, or only ever stored to — is added to one last
// overflowInstance row, present when it counts anything.
func (c *resultCache) perInstanceStats() []InstanceCacheStats {
	var out []InstanceCacheStats
	for instance, ic := range c.perInst {
		out = append(out, InstanceCacheStats{Instance: instance, Hits: ic.hits, Misses: ic.misses})
	}
	byName := func(s InstanceCacheStats, instance string) int { return strings.Compare(s.Instance, instance) }
	slices.SortFunc(out, func(a, b InstanceCacheStats) int { return byName(a, b.Instance) })
	other := InstanceCacheStats{Instance: overflowInstance, Hits: c.overflow.hits, Misses: c.overflow.misses}
	for instance, keys := range c.byInstance {
		row := &other
		if i, ok := slices.BinarySearchFunc(out, instance, byName); ok {
			row = &out[i]
		}
		for _, e := range keys {
			row.Entries++
			row.Units += e.units()
		}
	}
	if other != (InstanceCacheStats{Instance: overflowInstance}) {
		out = append(out, other)
	}
	return out
}

// len returns the number of cached queries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// unitCount returns the currently stored object-ID units.
func (c *resultCache) unitCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.units
}

func cloneMatches(ms []Match) []Match {
	out := make([]Match, len(ms))
	copy(out, ms)
	return out
}

// cmSketch is a small count-min sketch with saturating 8-bit counters
// and periodic halving (the TinyLFU aging step): after sampleCap
// increments every counter is halved, so estimates reflect recent
// popularity rather than all time. Hashing is seeded FNV-1a double
// hashing — fully deterministic across runs.
type cmSketch struct {
	mask    uint64
	rows    [4][]uint8
	samples int
	// sampleCap bounds the aging window; 8x the row width keeps the
	// counters meaningful without letting history dominate.
	sampleCap int
}

func newCMSketch(capacity int) *cmSketch {
	w := ceilPow2(capacity)
	if w < 64 {
		w = 64
	}
	s := &cmSketch{mask: uint64(w - 1), sampleCap: 8 * w}
	for i := range s.rows {
		s.rows[i] = make([]uint8, w)
	}
	return s
}

func sketchHash(key string) (h1, h2 uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// Finalize a second independent hash from the first (splitmix-style
	// mixing); forcing it odd keeps the double-hash probe full-period
	// over the power-of-two width.
	z := h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return h, z | 1
}

func (s *cmSketch) increment(key string) {
	h1, h2 := sketchHash(key)
	for i := range s.rows {
		idx := (h1 + uint64(i)*h2) & s.mask
		if s.rows[i][idx] < 255 {
			s.rows[i][idx]++
		}
	}
	s.samples++
	if s.samples >= s.sampleCap {
		s.halve()
	}
}

func (s *cmSketch) estimate(key string) uint8 {
	h1, h2 := sketchHash(key)
	est := uint8(255)
	for i := range s.rows {
		idx := (h1 + uint64(i)*h2) & s.mask
		if v := s.rows[i][idx]; v < est {
			est = v
		}
	}
	return est
}

func (s *cmSketch) halve() {
	for i := range s.rows {
		row := s.rows[i]
		for j := range row {
			row[j] >>= 1
		}
	}
	s.samples /= 2
}
