package core

import (
	"container/list"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// hotCache is the popularity-tracked result cache: a segmented LRU
// (probation + protected) with TinyLFU-style frequency admission. Its
// capacity is fixed, like the paper's §4 cache (α·|O|/2^r per node):
// the hit ratio is won by choosing what to keep, not by growing.
//
// The paper's workload footnote — the top-10 queries carry over 60 %
// of daily volume — means the FIFO policy's weakness is precisely the
// hot head: a burst of one-off tail queries streams through the cache
// and evicts the popular entries that earn nearly all hits. Here every
// consultation (hit or miss) feeds a compact count-min sketch, and an
// entry may evict a resident victim only when the sketch estimates it
// to be more popular than that victim. Entries that are re-referenced
// graduate from the probation segment to the protected segment, so
// scan-like tail traffic is confined to probation.
//
// Everything is deterministic: no clocks, no randomness — the same
// sequence of consultations and stores produces the same cache state,
// which the promotion-determinism test pins.
type hotCache struct {
	mu       sync.Mutex
	capacity int

	units     int
	items     map[string]*hotEntry
	probation *list.List // front = most recent
	protected *list.List
	protUnits int
	sketch    *cmSketch

	byInstance map[string]map[string]*hotEntry

	hits    uint64
	misses  uint64
	perInst map[string]*instanceCounters
}

// hotProtectedFrac is the fraction of capacity reserved for the
// protected segment (the Caffeine/W-TinyLFU split).
const hotProtectedFrac = 0.8

type hotEntry struct {
	key       string
	instance  string
	pred      queryPred
	matches   []Match
	exhausted bool
	protected bool
	elem      *list.Element
}

func newHotCache(capacity int) *hotCache {
	return &hotCache{
		capacity:   capacity,
		items:      make(map[string]*hotEntry),
		probation:  list.New(),
		protected:  list.New(),
		sketch:     newCMSketch(capacity),
		byInstance: make(map[string]map[string]*hotEntry),
		perInst:    make(map[string]*instanceCounters),
	}
}

func (c *hotCache) enabled() bool { return c.capacity > 0 }

func (c *hotCache) instCounters(instance string) *instanceCounters {
	ic, ok := c.perInst[instance]
	if !ok {
		ic = &instanceCounters{}
		c.perInst[instance] = ic
	}
	return ic
}

func (c *hotCache) get(instance string, pred queryPred, threshold int) ([]Match, bool, bool) {
	if !c.enabled() {
		return nil, false, false
	}
	key := pred.cacheKey(instance)
	c.mu.Lock()
	c.sketch.increment(key)
	e, ok := c.items[key]
	if !ok || (!e.exhausted && len(e.matches) < threshold) {
		c.misses++
		c.instCounters(instance).misses++
		c.mu.Unlock()
		return nil, false, false
	}
	c.hits++
	c.instCounters(instance).hits++
	c.touchLocked(e)
	matches, exhausted := e.matches, e.exhausted
	c.mu.Unlock()
	// Stored slices are immutable (put clones); copy outside the lock.
	return truncateCached(matches, exhausted, threshold)
}

// touchLocked records a re-reference: probation entries graduate to
// protected, protected entries move to the segment front. Graduation
// may push protected over its share; its LRU tail then demotes back to
// probation (never straight out of the cache).
func (c *hotCache) touchLocked(e *hotEntry) {
	if e.protected {
		c.protected.MoveToFront(e.elem)
		return
	}
	c.probation.Remove(e.elem)
	e.protected = true
	e.elem = c.protected.PushFront(e)
	c.protUnits += len(e.matches)
	limit := int(hotProtectedFrac * float64(c.capacity))
	for c.protUnits > limit && c.protected.Len() > 1 {
		tail := c.protected.Back()
		v := tail.Value.(*hotEntry)
		c.protected.Remove(tail)
		v.protected = false
		v.elem = c.probation.PushFront(v)
		c.protUnits -= len(v.matches)
	}
}

func (c *hotCache) put(instance string, pred queryPred, matches []Match, exhausted bool) {
	if !c.enabled() || len(matches) > c.capacity {
		return
	}
	key := pred.cacheKey(instance)
	cloned := cloneMatches(matches)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		// Replace in place, keeping segment position.
		c.units -= len(e.matches)
		if e.protected {
			c.protUnits -= len(e.matches)
		}
		e.matches, e.exhausted, e.pred = cloned, exhausted, pred
		c.units += len(cloned)
		if e.protected {
			c.protUnits += len(cloned)
		}
		c.evictLocked()
		return
	}
	need := c.units + len(matches) - c.capacity
	if need > 0 {
		// Admission contest: the candidate may only displace victims
		// the sketch estimates to be less popular than itself.
		if !c.admitLocked(key, need) {
			return
		}
	}
	e := &hotEntry{key: key, instance: instance, pred: pred, matches: cloned, exhausted: exhausted}
	e.elem = c.probation.PushFront(e)
	c.items[key] = e
	c.units += len(cloned)
	keys, ok := c.byInstance[instance]
	if !ok {
		keys = make(map[string]*hotEntry)
		c.byInstance[instance] = keys
	}
	keys[key] = e
}

// admitLocked decides a full-cache insertion: walk would-be victims
// (probation LRU first, then protected LRU) until `need` units are
// covered; if any victim is at least as popular as the candidate, the
// candidate is rejected and nothing is evicted. Otherwise the victims
// are evicted and the insert proceeds.
func (c *hotCache) admitLocked(candidateKey string, need int) bool {
	candFreq := c.sketch.estimate(candidateKey)
	var victims []*hotEntry
	covered := 0
	scan := func(l *list.List) bool {
		for el := l.Back(); el != nil && covered < need; el = el.Prev() {
			v := el.Value.(*hotEntry)
			if c.sketch.estimate(v.key) >= candFreq {
				return false
			}
			victims = append(victims, v)
			covered += len(v.matches)
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
// constraint holds — the unconditional form used by replacement growth,
// where there is no admission contest.
func (c *hotCache) evictLocked() {
	for c.units > c.capacity {
		var victim *hotEntry
		if el := c.probation.Back(); el != nil {
			victim = el.Value.(*hotEntry)
		} else if el := c.protected.Back(); el != nil {
			victim = el.Value.(*hotEntry)
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
	}
}

func (c *hotCache) removeLocked(e *hotEntry) {
	if e.protected {
		c.protected.Remove(e.elem)
		c.protUnits -= len(e.matches)
	} else {
		c.probation.Remove(e.elem)
	}
	c.units -= len(e.matches)
	delete(c.items, e.key)
	if keys, ok := c.byInstance[e.instance]; ok {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byInstance, e.instance)
		}
	}
}

func (c *hotCache) refineSource(instance string, query keyword.Set) ([]Match, bool) {
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

func (c *hotCache) invalidateSubsetsOf(instance, setKey string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byInstance[instance]
	if len(keys) == 0 {
		return
	}
	var drop []*hotEntry
	for _, e := range keys {
		if e.pred.matches(setKey) {
			drop = append(drop, e)
		}
	}
	for _, e := range drop {
		c.removeLocked(e)
	}
}

func (c *hotCache) dropRoot(instance string, root hypercube.Vertex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byInstance[instance] {
		if e.pred.root == root {
			c.removeLocked(e)
		}
	}
}

func (c *hotCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.units = 0
	c.protUnits = 0
	c.items = make(map[string]*hotEntry)
	c.probation = list.New()
	c.protected = list.New()
	c.byInstance = make(map[string]map[string]*hotEntry)
	c.sketch = newCMSketch(c.capacity)
}

func (c *hotCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *hotCache) snapshot() CacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CacheSnapshot{
		Policy:        CachePolicyHot,
		CapacityUnits: c.capacity,
		Units:         c.units,
		Entries:       len(c.items),
		Hits:          c.hits,
		Misses:        c.misses,
	}
	snap.PerInstance = perInstanceStats(c.perInst, func(instance string) (entries, units int) {
		for _, e := range c.byInstance[instance] {
			entries++
			units += len(e.matches)
		}
		return entries, units
	})
	return snap
}

func (c *hotCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *hotCache) unitCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.units
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
