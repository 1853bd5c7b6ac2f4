package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Soft replication of hot roots. The paper's load analysis (§5, Fig.
// 12) shows query popularity is heavily skewed — the top handful of
// keyword sets draw the majority of traffic — so the nodes owning
// their root vertices become hotspots no matter how well the hash
// spreads the index itself. The hot-vertex layer counters this with
// *soft replicas*: when a root's query count crosses a threshold, its
// owner pushes a copy of the root's table onto HotReplicas extra peers
// and starts advertising their addresses in its responses
// (respTQuery.SoftAddrs); clients then spread subsequent searches for
// that root across owner + replicas.
//
// Soft copies are deliberately weak state:
//
//   - Volatile: never WAL-logged, dropped on restart. The owner
//     re-promotes from live popularity if the root still matters.
//   - Generation-stamped: a push carries one generation number across
//     all its chunks and goes live only when the Done chunk lands, so a
//     half-pushed table never serves.
//   - Invalidated, not updated: any mutation of a promoted vertex
//     demotes it — the owner synchronously (best effort) tells each
//     replica to drop its copy, carrying the mutated SetKey so the
//     replica runs the same invalidateSubsetsOf event over its own
//     result cache. An unreachable replica keeps serving the stale
//     copy until its owner-side demotion propagates — the same
//     staleness contract the per-node result cache already has
//     (caches on non-mutating nodes go stale until their own
//     mutation arrives).
//
// Lock order: hot/soft locks are flat like the cache's — never held
// across a Send, never nested inside shard locks.

const (
	// DefaultHotPromoteThreshold is the fresh-query count at which a
	// root is promoted when HotReplicas > 0 — §3.4's one rule for a hot
	// spot. Exported so offline attribution studies (sim.HotSpots)
	// model promotion at the same point.
	DefaultHotPromoteThreshold = 64
	// hotDecayEvery halves all popularity counters after this many
	// fresh rooted queries, so promotion tracks *current* popularity —
	// count-based, not wall-clock, to keep the layer deterministic.
	hotDecayEvery = 1024
	// hotCoolThreshold is the decayed count below which a promoted
	// root is demoted (its replicas dropped) at the next decay sweep.
	hotCoolThreshold = 8
	// softPushTimeout bounds one promotion push or invalidation send;
	// decoupled from any query deadline so a promotion triggered inside
	// a short-deadline search still completes.
	softPushTimeout = 5 * time.Second
)

// hotKey identifies one tracked root vertex.
type hotKey struct {
	instance string
	vertex   hypercube.Vertex
}

// softSet is the owner-side record of a promoted root: the replica
// peers holding its soft copy.
type softSet struct {
	gen   uint64
	addrs []transport.Addr
	strs  []string // pre-rendered for respTQuery.SoftAddrs
}

// hotVertexManager is the owner-side half of the layer: popularity
// tracking, promotion pushes, and demotion/invalidation.
type hotVertexManager struct {
	s         *Server
	replicas  int
	threshold int

	gen atomic.Uint64

	mu        sync.Mutex
	counts    map[hotKey]int
	promoted  map[hotKey]*softSet
	promoting map[hotKey]bool
	notes     int // fresh queries since the last decay sweep
	// mutGens counts the mutations of a root that is being promoted;
	// an entry lives only while its key is in promoting. promote
	// re-checks it before committing: a mutation that lands mid-push
	// would otherwise miss the invalidation (the root is not in
	// promoted yet) and leave a stale copy serving indefinitely.
	mutGens map[hotKey]uint64
}

func newHotVertexManager(s *Server, replicas int) *hotVertexManager {
	return &hotVertexManager{
		s:         s,
		replicas:  replicas,
		threshold: DefaultHotPromoteThreshold,
		counts:    make(map[hotKey]int),
		promoted:  make(map[hotKey]*softSet),
		promoting: make(map[hotKey]bool),
		mutGens:   make(map[hotKey]uint64),
	}
}

func (h *hotVertexManager) enabled() bool { return h != nil && h.replicas > 0 }

// note records one fresh rooted query for (instance, v) and returns
// the soft-replica addresses to advertise if the root is promoted.
// Crossing the promotion threshold promotes inline (synchronously), so
// the very response that crossed it already carries the hint — and so
// the layer stays deterministic under a serial query log.
func (h *hotVertexManager) note(ctx context.Context, instance string, v hypercube.Vertex) []string {
	if !h.enabled() {
		return nil
	}
	k := hotKey{instance: instance, vertex: v}
	h.mu.Lock()
	h.counts[k]++
	h.notes++
	if h.notes >= hotDecayEvery {
		h.notes = 0
		for ck, c := range h.counts {
			c /= 2
			if c == 0 {
				delete(h.counts, ck)
			} else {
				h.counts[ck] = c
			}
			if set, ok := h.promoted[ck]; ok && c < hotCoolThreshold {
				delete(h.promoted, ck)
				h.demoteLocked(ck, set)
			}
		}
	}
	set := h.promoted[k]
	needPromote := set == nil && h.counts[k] >= h.threshold && !h.promoting[k]
	if needPromote {
		h.promoting[k] = true
	}
	h.mu.Unlock()

	if needPromote {
		set = h.promote(ctx, k)
	}
	if set == nil {
		return nil
	}
	return set.strs
}

// demoteLocked fires a cooling demotion: the replica drop is sent
// asynchronously (empty SetKey — the copy goes away but cached
// results derived from it remain valid). Callers hold h.mu; the
// goroutine takes no locks before its own sends.
func (h *hotVertexManager) demoteLocked(k hotKey, set *softSet) {
	h.s.met.hotDemotions.Inc()
	go h.sendInvalidate(k, set, "")
}

// promote snapshots the root's table and pushes it to the replica
// peers in migration-sized, generation-stamped chunks. On any push
// failure the whole promotion is abandoned (the replica set must be
// complete or absent — a partial set would skew the spreading) and the
// counter resets so a persistent failure doesn't retry every query.
func (h *hotVertexManager) promote(ctx context.Context, k hotKey) *softSet {
	defer func() {
		h.mu.Lock()
		delete(h.promoting, k)
		delete(h.mutGens, k)
		h.mu.Unlock()
	}()

	peers := h.pickPeers(ctx, k)
	if len(peers) == 0 {
		h.mu.Lock()
		h.counts[k] = 0
		h.mu.Unlock()
		return nil
	}
	h.mu.Lock()
	startGen := h.mutGens[k]
	h.mu.Unlock()
	entries := h.s.snapshotVertex(k.instance, k.vertex)
	gen := h.gen.Add(1)
	chunk := h.s.cfg.Migration.withDefaults().ChunkEntries

	pctx, cancel := context.WithTimeout(context.Background(), softPushTimeout)
	defer cancel()
	for _, addr := range peers {
		if err := h.pushCopy(pctx, addr, k, gen, entries, chunk); err != nil {
			// Tell any peer that already holds a complete copy of this
			// generation to drop it, then abandon the promotion.
			set := &softSet{gen: gen, addrs: peers}
			h.sendInvalidate(k, set, "")
			h.mu.Lock()
			h.counts[k] = 0
			h.mu.Unlock()
			return nil
		}
	}

	set := &softSet{gen: gen, addrs: peers, strs: make([]string, len(peers))}
	for i, a := range peers {
		set.strs[i] = string(a)
	}
	h.mu.Lock()
	if h.mutGens[k] != startGen {
		// The vertex mutated while we were pushing: the copies we just
		// installed snapshot a stale table, and the mutation's own
		// invalidation ran before the root entered promoted (so it
		// dropped nothing). Tear the copies down and abandon.
		h.mu.Unlock()
		h.sendInvalidate(k, set, "")
		return nil
	}
	h.promoted[k] = set
	h.mu.Unlock()
	h.s.met.hotPromotions.Inc()
	return set
}

// pickPeers derives the replica set for a root deterministically from
// the vertex: successive splitmix candidates masked into the cube,
// resolved through the normal resolver, skipping the owner itself and
// duplicates. Determinism matters — the seeded promotion test replays
// a query log and expects the identical replica sets.
func (h *hotVertexManager) pickPeers(ctx context.Context, k hotKey) []transport.Addr {
	own, err := h.s.cfg.Resolver.Resolve(ctx, k.instance, k.vertex)
	if err != nil {
		return nil
	}
	peers := make([]transport.Addr, 0, h.replicas)
	seen := map[transport.Addr]struct{}{own: {}}
	for _, cand := range SoftReplicaCandidates(k.vertex, h.s.cube.Dim(), h.replicas) {
		if len(peers) == h.replicas {
			break
		}
		addr, err := h.s.cfg.Resolver.Resolve(ctx, k.instance, cand)
		if err != nil {
			continue
		}
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		peers = append(peers, addr)
	}
	return peers
}

// pushCopy sends one replica's full copy as a chunked sequence under
// one generation; the last chunk carries Done. An empty table still
// pushes one Done chunk — an empty live copy serves correctly.
func (h *hotVertexManager) pushCopy(ctx context.Context, addr transport.Addr, k hotKey, gen uint64, entries []BulkEntry, chunk int) error {
	for start := 0; ; start += chunk {
		end := start + chunk
		if end >= len(entries) {
			end = len(entries)
		}
		msg := msgSoftPromote{
			Instance: k.instance,
			Vertex:   uint64(k.vertex),
			Gen:      gen,
			Entries:  entries[start:end],
			Done:     end == len(entries),
		}
		if _, err := h.s.cfg.Sender.Send(ctx, addr, msg); err != nil {
			return err
		}
		if msg.Done {
			return nil
		}
	}
}

// noteMutation demotes a promoted root whose table just changed:
// drops the owner-side record, resets the popularity count (the next
// burst re-promotes with a fresh copy), and synchronously best-effort
// invalidates each replica. setKey is the mutated entry's key so
// replicas can invalidate their own result caches with the same
// subset-event the owner just ran.
func (h *hotVertexManager) noteMutation(instance string, v hypercube.Vertex, setKey string) {
	if !h.enabled() {
		return
	}
	k := hotKey{instance: instance, vertex: v}
	h.mu.Lock()
	if h.promoting[k] {
		h.mutGens[k]++
	}
	set, ok := h.promoted[k]
	if ok {
		delete(h.promoted, k)
		h.counts[k] = 0
	}
	h.mu.Unlock()
	if !ok {
		return
	}
	h.s.met.hotDemotions.Inc()
	h.sendInvalidate(k, set, setKey)
}

// sendInvalidate tells each replica of set to drop its copy; best
// effort with a bounded timeout — an unreachable replica serves its
// stale copy until it hears otherwise, matching the result cache's
// staleness contract.
func (h *hotVertexManager) sendInvalidate(k hotKey, set *softSet, setKey string) {
	ctx, cancel := context.WithTimeout(context.Background(), softPushTimeout)
	defer cancel()
	msg := msgSoftInvalidate{
		Instance: k.instance,
		Vertex:   uint64(k.vertex),
		Gen:      set.gen,
		SetKey:   setKey,
	}
	for _, addr := range set.addrs {
		if _, err := h.s.cfg.Sender.Send(ctx, addr, msg); err == nil {
			h.s.met.softInvalidations.Inc()
		}
	}
}

// promotedRoots lists the currently promoted roots as "instance/vertex"
// strings in sorted order (the determinism test's fingerprint).
func (h *hotVertexManager) promotedRoots() []hotKey {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]hotKey, 0, len(h.promoted))
	for k := range h.promoted {
		out = append(out, k)
	}
	return out
}

// reset drops all tracking and promotion state (crash model: process
// memory is lost; no invalidations are sent — replicas age out via
// their own restarts or the next mutation cycle).
func (h *hotVertexManager) reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.counts = make(map[hotKey]int)
	h.promoted = make(map[hotKey]*softSet)
	h.promoting = make(map[hotKey]bool)
	h.mutGens = make(map[hotKey]uint64)
	h.notes = 0
	h.mu.Unlock()
}

// SoftReplicaCandidates returns the deterministic candidate-vertex
// walk replica placement resolves addresses from: successive
// splitmix64 values of the root vertex masked into the cube, enough
// for 8 resolution attempts per wanted replica. The caller (live:
// pickPeers; offline: the sim hot-spot study) dedups the resolved
// nodes and skips the owner.
func SoftReplicaCandidates(v hypercube.Vertex, dim, replicas int) []hypercube.Vertex {
	mask := uint64(1)<<uint(dim) - 1
	out := make([]hypercube.Vertex, 0, 8*(replicas+1))
	for salt := uint64(1); salt <= uint64(8*(replicas+1)); salt++ {
		out = append(out, hypercube.Vertex(splitmix64(uint64(v)+salt*0x9e3779b97f4a7c15)&mask))
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer — the same mixing the hot
// cache's sketch uses, here deriving replica candidate vertices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// snapshotVertex copies one vertex's table into BulkEntries under the
// shard read lock, in canonical order.
func (s *Server) snapshotVertex(instance string, v hypercube.Vertex) []BulkEntry {
	sh := s.shardFor(instance, v)
	sh.rlock(s.met.shardLockWait)
	defer sh.mu.RUnlock()
	tbl, ok := sh.tables[instance][v]
	if !ok {
		return nil
	}
	return appendEntries(nil, instance, v, tbl)
}

// softCopy is one replica-side soft table under construction or live.
type softCopy struct {
	gen uint64
	tbl *table
}

// softStore is the replica-side half: it holds the soft copies other
// owners pushed onto this node. Lookup is consulted on the search
// path before the ownership check, with a lock-free emptiness fast
// path so nodes holding no copies (the common case) pay one atomic
// load.
type softStore struct {
	live atomic.Int64 // count of live copies; fast-path gate

	mu      sync.RWMutex
	pending map[hotKey]*softCopy
	serving map[hotKey]*softCopy
}

func newSoftStore() *softStore {
	return &softStore{
		pending: make(map[hotKey]*softCopy),
		serving: make(map[hotKey]*softCopy),
	}
}

// applyPromote ingests one promotion chunk. Chunks of one generation
// accumulate in pending; Done moves the copy to serving. Stale
// generations (≤ an already-live copy's) are ignored.
func (st *softStore) applyPromote(msg msgSoftPromote) {
	k := hotKey{instance: msg.Instance, vertex: hypercube.Vertex(msg.Vertex)}
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.serving[k]; ok && cur.gen >= msg.Gen {
		return
	}
	pend := st.pending[k]
	if pend == nil || pend.gen < msg.Gen {
		pend = &softCopy{gen: msg.Gen, tbl: &table{}}
		st.pending[k] = pend
	} else if pend.gen > msg.Gen {
		return
	}
	for _, be := range msg.Entries {
		pend.tbl.insert(be.SetKey, be.ObjectID)
	}
	if msg.Done {
		delete(st.pending, k)
		st.serving[k] = pend
		st.live.Store(int64(len(st.serving)))
	}
}

// applyInvalidate drops the copy for generations ≥ the stored one and
// reports whether a SetKey-bearing invalidation should also run over
// this node's result cache (it always should: the owner mutated the
// vertex, so any cached result derived from serving the soft copy may
// now be stale — even if the copy itself is already gone).
func (st *softStore) applyInvalidate(msg msgSoftInvalidate) {
	k := hotKey{instance: msg.Instance, vertex: hypercube.Vertex(msg.Vertex)}
	st.mu.Lock()
	if cur, ok := st.serving[k]; ok && msg.Gen >= cur.gen {
		delete(st.serving, k)
		st.live.Store(int64(len(st.serving)))
	}
	if pend, ok := st.pending[k]; ok && msg.Gen >= pend.gen {
		delete(st.pending, k)
	}
	st.mu.Unlock()
}

// lookup returns the live soft table for (instance, v), or nil. The
// returned table is immutable once live — promotion builds a fresh
// table per generation and never mutates a serving one.
func (st *softStore) lookup(instance string, v hypercube.Vertex) *table {
	if st == nil || st.live.Load() == 0 {
		return nil
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	c, ok := st.serving[hotKey{instance: instance, vertex: v}]
	if !ok {
		return nil
	}
	return c.tbl
}

// dropLocal discards any soft copy of a vertex this node itself
// mutates: local authority supersedes a replica of someone else's
// (now conflicting) promotion. Cheap no-op when nothing is stored.
func (st *softStore) dropLocal(instance string, v hypercube.Vertex) {
	if st == nil || (st.live.Load() == 0 && !st.hasPending()) {
		return
	}
	k := hotKey{instance: instance, vertex: v}
	st.mu.Lock()
	if _, ok := st.serving[k]; ok {
		delete(st.serving, k)
		st.live.Store(int64(len(st.serving)))
	}
	delete(st.pending, k)
	st.mu.Unlock()
}

func (st *softStore) hasPending() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.pending) > 0
}

// count reports the number of live soft copies (the gauge).
func (st *softStore) count() int {
	if st == nil {
		return 0
	}
	return int(st.live.Load())
}

// reset drops every copy (crash model; soft state is volatile).
func (st *softStore) reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.pending = make(map[hotKey]*softCopy)
	st.serving = make(map[hotKey]*softCopy)
	st.live.Store(0)
	st.mu.Unlock()
}
