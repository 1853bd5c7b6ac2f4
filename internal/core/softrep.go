package core

import (
	"context"
	"fmt"
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
// owner announces the root to HotReplicas extra peers and starts
// advertising their addresses in its responses (respTQuery.SoftAddrs);
// clients then spread subsequent searches for that root across owner +
// replicas.
//
// A replica is a forwarding cache, not a copy: it holds no table of
// the root, answers a spread search from its own result cache or by
// refinement reuse, asks the owner once on a miss (askOwner), and
// bounces the request back to the client's owner path when that ask
// fails. Its membership is deliberately weak state:
//
//   - Volatile: never WAL-logged, dropped on restart. The owner
//     re-promotes from live popularity if the root still matters.
//   - Generation-stamped: a stale announcement never replaces a newer
//     one, and an invalidation drops only generations at or below its
//     own (cooling demotions are sent from a goroutine).
//   - Invalidated, not updated: any mutation of a promoted vertex
//     demotes it — the owner synchronously (best effort) tells each
//     replica to drop the root, carrying the mutated SetKey so the
//     replica runs the same invalidateSubsetsOf event over its own
//     result cache. An unreachable replica keeps serving its cached
//     answers until it hears otherwise — the same staleness contract
//     the per-node result cache already has (caches on non-mutating
//     nodes go stale until their own mutation arrives); each such
//     failed send is counted with its cause.
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
	// softSendTimeout bounds one announcement or invalidation send;
	// decoupled from any query deadline so a promotion triggered inside
	// a short-deadline search still completes.
	softSendTimeout = 5 * time.Second
)

// hotKey identifies one tracked root vertex.
type hotKey struct {
	instance string
	vertex   hypercube.Vertex
}

// softSet is the owner-side record of a promoted root: the replica
// peers it was announced to.
type softSet struct {
	gen   uint64
	addrs []transport.Addr
	strs  []string // pre-rendered for respTQuery.SoftAddrs
}

// hotVertexManager is the owner-side half of the layer: popularity
// tracking, promotion announcements, and demotion/invalidation.
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
}

func newHotVertexManager(s *Server, replicas int) *hotVertexManager {
	return &hotVertexManager{
		s:         s,
		replicas:  replicas,
		threshold: DefaultHotPromoteThreshold,
		counts:    make(map[hotKey]int),
		promoted:  make(map[hotKey]*softSet),
		promoting: make(map[hotKey]bool),
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
// asynchronously (empty SetKey — the replica stops serving the root
// but keeps its cached answers). Callers hold h.mu; the
// goroutine takes no locks before its own sends.
func (h *hotVertexManager) demoteLocked(k hotKey, set *softSet) {
	h.s.met.hotDemotions.Inc()
	go h.sendInvalidate(k, set, "")
}

// promote announces the root to the replica peers under one
// generation. On any send failure the whole promotion is abandoned
// (the replica set must be complete or absent — a partial set would
// skew the spreading): the peers already told, and the one whose send
// failed (it may have applied the announcement before the error), are
// told to drop it, and the counter resets so a persistent failure
// doesn't retry every query.
func (h *hotVertexManager) promote(ctx context.Context, k hotKey) *softSet {
	defer func() {
		h.mu.Lock()
		delete(h.promoting, k)
		h.mu.Unlock()
	}()

	peers := h.pickPeers(ctx, k)
	if len(peers) == 0 {
		h.mu.Lock()
		h.counts[k] = 0
		h.mu.Unlock()
		return nil
	}
	set := &softSet{gen: h.gen.Add(1), addrs: peers, strs: make([]string, len(peers))}
	for i, a := range peers {
		set.strs[i] = string(a)
	}
	msg := msgSoftPromote{Instance: k.instance, Vertex: uint64(k.vertex), Gen: set.gen}
	pctx, cancel := context.WithTimeout(context.Background(), softSendTimeout)
	defer cancel()
	for i, addr := range peers {
		if _, err := h.s.cfg.Sender.Send(pctx, addr, msg); err != nil {
			h.sendInvalidate(k, &softSet{gen: set.gen, addrs: peers[:i+1]}, "")
			h.mu.Lock()
			h.counts[k] = 0
			h.mu.Unlock()
			return nil
		}
	}
	h.mu.Lock()
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
	vs := append([]hypercube.Vertex{k.vertex}, SoftReplicaCandidates(k.vertex, h.s.cube.Dim(), h.replicas)...)
	addrs := make([]transport.Addr, len(vs))
	errs := h.s.cfg.Resolver.Owners(ctx, k.instance, vs, addrs)
	if errs != nil && errs[0] != nil {
		return nil
	}
	peers := make([]transport.Addr, 0, h.replicas)
	seen := map[transport.Addr]struct{}{addrs[0]: {}}
	for i, addr := range addrs[1:] {
		if len(peers) == h.replicas {
			break
		}
		if errs != nil && errs[i+1] != nil {
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

// noteMutation demotes a promoted root whose table just changed:
// drops the owner-side record, resets the popularity count (the next
// burst re-promotes it), and synchronously best-effort
// invalidates each replica. setKey is the mutated entry's key so
// replicas can invalidate their own result caches with the same
// subset-event the owner just ran.
func (h *hotVertexManager) noteMutation(instance string, v hypercube.Vertex, setKey string) {
	if !h.enabled() {
		return
	}
	k := hotKey{instance: instance, vertex: v}
	h.mu.Lock()
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

// sendInvalidate tells each replica of set to drop the root; best
// effort with a bounded timeout — an unreachable replica serves its
// cached answers until it hears otherwise, matching the result cache's
// staleness contract. Each failed send is counted with its cause.
func (h *hotVertexManager) sendInvalidate(k hotKey, set *softSet, setKey string) {
	ctx, cancel := context.WithTimeout(context.Background(), softSendTimeout)
	defer cancel()
	msg := msgSoftInvalidate{
		Instance: k.instance,
		Vertex:   uint64(k.vertex),
		Gen:      set.gen,
		SetKey:   setKey,
	}
	for _, addr := range set.addrs {
		if _, err := h.s.cfg.Sender.Send(ctx, addr, msg); err != nil {
			h.s.softInvalidateFails.note(fmt.Sprintf("invalidate %s/%d at %s: %v", k.instance, k.vertex, addr, err))
			continue
		}
		h.s.met.softInvalidations.Inc()
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

// softStore is the replica-side half: the roots other owners announced
// to this node, each with its generation. holds is consulted on the
// search path for every SoftOnly request, with a lock-free emptiness
// fast path so nodes holding no roots (the common case) pay one atomic
// load.
type softStore struct {
	live atomic.Int64 // len(roots); fast-path gate

	mu    sync.RWMutex
	roots map[hotKey]uint64 // root → generation
}

func newSoftStore() *softStore {
	return &softStore{roots: make(map[hotKey]uint64)}
}

// applyPromote records an announcement unless a newer generation of
// the same root is already held, and reports whether it did.
func (st *softStore) applyPromote(msg msgSoftPromote) bool {
	k := hotKey{instance: msg.Instance, vertex: hypercube.Vertex(msg.Vertex)}
	st.mu.Lock()
	defer st.mu.Unlock()
	if gen, ok := st.roots[k]; ok && gen >= msg.Gen {
		return false
	}
	st.roots[k] = msg.Gen
	st.live.Store(int64(len(st.roots)))
	return true
}

// applyInvalidate drops the root if the held generation is at or below
// the invalidation's. The handler runs a SetKey-bearing invalidation
// over the result cache either way: the owner mutated the vertex, so
// any answer cached while serving the root may now be stale.
func (st *softStore) applyInvalidate(msg msgSoftInvalidate) {
	k := hotKey{instance: msg.Instance, vertex: hypercube.Vertex(msg.Vertex)}
	st.mu.Lock()
	if gen, ok := st.roots[k]; ok && msg.Gen >= gen {
		delete(st.roots, k)
		st.live.Store(int64(len(st.roots)))
	}
	st.mu.Unlock()
}

// holds reports whether this node serves (instance, v)'s spread
// searches.
func (st *softStore) holds(instance string, v hypercube.Vertex) bool {
	if st == nil || st.live.Load() == 0 {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.roots[hotKey{instance: instance, vertex: v}]
	return ok
}

// count reports the number of roots held (the gauge).
func (st *softStore) count() int {
	if st == nil {
		return 0
	}
	return int(st.live.Load())
}

// reset drops every root (crash model; soft state is volatile).
func (st *softStore) reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.roots = make(map[hotKey]uint64)
	st.live.Store(0)
	st.mu.Unlock()
}
