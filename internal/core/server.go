package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// BatchMode selects whether ParallelLevels waves coalesce their
// sub-queries into one msgSubQueryBatch per physical peer.
// Batching changes only the physical framing: logical SubMsgs
// accounting, match order, Completeness and failed-subtree math are
// identical either way.
type BatchMode int

const (
	// BatchAuto resolves to the default (on) at server construction.
	BatchAuto BatchMode = iota
	// BatchOn coalesces each wave into one RPC frame per distinct peer.
	BatchOn
	// BatchOff sends one unit per frame: a one-unit msgSubQueryBatch
	// per frontier vertex (the paper's literal per-node exchange).
	BatchOff
)

// maxShards bounds the lock-stripe count: beyond a few hundred stripes
// the extra maps cost memory without reducing contention further.
const maxShards = 256

// maxSessions bounds retained cumulative-search sessions (oldest
// evicted first); parallelFanout bounds the concurrent sub-queries of
// one ParallelLevels wave sent one vertex at a time.
const (
	maxSessions    = 256
	parallelFanout = 32
)

// ServerConfig configures an index Server.
type ServerConfig struct {
	// Hasher fixes the hypercube dimensionality and keyword hash; it
	// must be identical on every node of the deployment.
	Hasher keyword.Hasher
	// Resolver maps logical vertices to physical addresses (g).
	Resolver Resolver
	// Sender delivers protocol messages to other index servers.
	Sender transport.Sender
	// CacheCapacity is the root-result cache capacity in object-ID
	// units (the paper's α·|O|/2^r); 0 disables caching.
	CacheCapacity int
	// CachePolicy selects the result-cache replacement policy:
	// CachePolicyHot (default) — popularity-tracked segmented LRU with
	// frequency-sketch admission — or CachePolicyFIFO, the same cache
	// with admission off, in insertion order. Both hold exactly
	// CacheCapacity units.
	CachePolicy string
	// HotReplicas enables soft replication of hot root vertices: a
	// root whose fresh-query count reaches DefaultHotPromoteThreshold
	// is announced to this many extra peers, and the owner advertises
	// their addresses so clients spread the load; a replica answers
	// from its result cache or asks the owner. 0 disables the layer
	// (the default); a positive value needs CacheCapacity > 0.
	HotReplicas int
	// BatchWaves controls wave batching for ParallelLevels searches
	// this server roots (BatchAuto = on).
	BatchWaves BatchMode
	// DataDir, when non-empty, enables the durability layer: every
	// table mutation appends a WAL record under this directory before
	// it applies, and NewServer recovers snapshot + WAL tail back into
	// the sharded tables on startup. Empty leaves the store nil and the
	// hot path untouched (the telemetry no-op convention).
	DataDir string
	// Fsync selects the WAL flush policy when DataDir is set
	// (default store.FsyncInterval: group-commit every 100ms).
	Fsync store.FsyncPolicy
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appends (0 = store default, negative disables compaction).
	SnapshotEvery int
	// Admission, when non-nil, gates every client-facing operation
	// this server receives (searches, pin queries, inserts, deletes)
	// through an admission controller with the given policy: bounded
	// inflight, a bounded deadline-aware wait queue, and per-client
	// fair queuing. Shed requests fail fast with an
	// admission.Overload carrying a Retry-After hint. Interior wave
	// traffic (sub-queries, batches, migration chunks and commits) is
	// never gated — shedding mid-wave would waste work the root
	// already paid for. Nil disables admission control entirely.
	Admission *admission.Policy
	// Migration tunes the background migration manager that pulls index
	// ranges from old owners on membership change (chunk sizes,
	// throttle, retries); the zero value selects the defaults. See
	// migrate.go and DESIGN §11.
	Migration MigrationConfig
	// OwnedArc, when set, snapshots the DHT ring arc (pred, self] this
	// node currently owns (chord.Node.OwnedArc; joined false = owns
	// nothing). The server reads it once per request or batch frame and
	// tests every vertex key against it with dht.Between. Requests for
	// keys the node no longer owns (its range was taken over by a
	// joiner) are rejected so callers route again — without this, stale
	// routes would silently read empty tables on live former owners.
	OwnedArc func() (pred, self dht.ID, joined bool)
	// Telemetry, when set, receives the server's metrics (message
	// counts by kind, search costs, cache hits, index-size gauges) and
	// one search-trace span per superset search it roots. Nil disables
	// all instrumentation at zero cost. Several servers may share one
	// registry; gauges then report deployment-wide sums.
	Telemetry *telemetry.Registry
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.BatchWaves == BatchAuto {
		c.BatchWaves = BatchOn
	}
	return c
}

// Server is the index service of one physical node. It stores the
// index tables of every logical vertex the mapping g assigns to the
// node, answers pin and sub-queries, and — for queries whose root
// vertex it hosts — orchestrates the superset-search traversal.
//
// Table state is lock-striped: each (instance, vertex) pair lives on
// exactly one shard, guarded by that shard's RWMutex. Scans and pin
// queries take read locks, so a wave of batch scans proceeds on all
// cores and only excludes writers touching the same stripe.
type Server struct {
	cfg  ServerConfig
	cube hypercube.Cube
	met  serverMetrics
	// adm gates client-facing requests; nil (admission disabled) makes
	// every Acquire a no-op.
	adm *admission.Controller

	// searchSeq numbers the searches this server roots; it drives the
	// 1-in-spanStepSampleEvery sampling of per-vertex span steps (see
	// runQuery).
	searchSeq atomic.Uint64

	// shards are the lock stripes, picked by hash(instance, vertex):
	// GOMAXPROCS rounded up to a power of two, at most maxShards.
	shards   []*tableShard
	cache    *resultCache
	sessions *sessionStore

	// hot tracks root popularity and manages soft replication of the
	// roots this server owns; soft holds the roots other owners
	// announced to this node.
	hot  *hotVertexManager
	soft *softStore
	// softForwardFails counts a soft replica's cache-miss forwards the
	// root's owner did not answer (the replica then bounced the
	// request); softInvalidateFails counts the invalidations this
	// owner could not deliver to a replica. Both surface in Stats.
	softForwardFails    failureLog
	softInvalidateFails failureLog

	// migrate manages inbound range migrations and the double-read
	// window state; always non-nil on servers built by NewServer.
	migrate *migrationManager
	// handOff is set once Depart has begun: the wait for the successor's
	// pull of this server's range.
	handOff atomic.Pointer[handOff]

	// store is the durability layer; nil when DataDir is unset, and
	// then never consulted on the hot path.
	store *store.Store
	// stateMu fences mutations against snapshot compaction and orders
	// multi-shard mutations: every durable entry mutation holds the
	// read side across its WAL append + table apply, while compaction,
	// recovery and range mutations (handoffs) hold the write
	// side — so a snapshot is always a prefix-consistent cut of the
	// log and a range record is totally ordered against every entry
	// record. Lock order: entry mutations take stateMu(R) → shard →
	// store.mu; write-side holders take stateMu(W) → store.mu → shard.
	// The two interior orders cannot deadlock because the exclusive
	// fence guarantees they never run concurrently. Not taken at all
	// when store is nil.
	stateMu sync.RWMutex
	// compacting collapses concurrent compaction triggers into one.
	compacting atomic.Bool
	// snapshotFailures counts compactions whose snapshot write failed;
	// lastSnapshotErr is the latest cause (nil when none). Both surface
	// in Stats.
	snapshotFailures atomic.Uint64
	lastSnapshotErr  atomic.Pointer[string]
}

// tableShard is one lock stripe of the server's table state.
type tableShard struct {
	mu     sync.RWMutex
	tables map[string]map[hypercube.Vertex]*table // instance → vertex → Tbl
}

// shardFor returns the stripe holding vertex v of the given instance.
// The hash must depend on both coordinates: instances salt their
// vertex→node mapping, so one physical node routinely hosts the same
// vertex ID for several instances.
func (s *Server) shardFor(instance string, v hypercube.Vertex) *tableShard {
	return s.shardAt(instanceHash(instance), v)
}

// instanceHash is FNV-1a over the instance, inline and allocation free
// (fmt/string concat would dominate the scan fast path); a frame
// computes it once for all its units.
func instanceHash(instance string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(instance); i++ {
		h ^= uint64(instance[i])
		h *= 1099511628211
	}
	return h
}

// shardAt folds vertex v into an instance's hash and picks its stripe.
func (s *Server) shardAt(h uint64, v hypercube.Vertex) *tableShard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
	return s.shards[(h^h>>32)&uint64(len(s.shards)-1)]
}

// lock acquires the shard's write lock, timing the wait when the
// server is instrumented (uninstrumented servers take no timestamps).
func (sh *tableShard) lock(h *telemetry.Histogram) {
	if h == nil {
		sh.mu.Lock()
		return
	}
	start := time.Now()
	sh.mu.Lock()
	h.Observe(time.Since(start).Nanoseconds())
}

// rlock is lock for readers.
func (sh *tableShard) rlock(h *telemetry.Histogram) {
	if h == nil {
		sh.mu.RLock()
		return
	}
	start := time.Now()
	sh.mu.RLock()
	h.Observe(time.Since(start).Nanoseconds())
}

// entryCount reports the shard's ⟨keyword set, objects⟩ entry total
// (the per-shard load gauge).
func (sh *tableShard) entryCount() int64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var n int64
	for _, vertices := range sh.tables {
		for _, tbl := range vertices {
			n += int64(tbl.entryCount())
		}
	}
	return n
}

// serverMetrics holds the server's pre-resolved instruments. With a
// nil registry every field is nil, and the nil-safe instrument methods
// make each site a no-op.
type serverMetrics struct {
	opInsert    *telemetry.Counter // core_ops_total{op=…}
	opDelete    *telemetry.Counter
	opPin       *telemetry.Counter
	opSubBatch  *telemetry.Counter
	opMigChunk  *telemetry.Counter
	opMigCommit *telemetry.Counter
	opSearch    *telemetry.Counter

	searchNodes   *telemetry.Counter   // core_search_nodes_total
	searchMsgs    *telemetry.Counter   // core_search_msgs_total
	searchFailed  *telemetry.Counter   // core_search_failed_nodes_total
	searchRounds  *telemetry.Counter   // core_search_rounds_total
	searchMatches *telemetry.Counter   // core_search_matches_total
	searchLatency *telemetry.Histogram // core_search_duration_ns
	cacheHits     *telemetry.Counter   // core_cache_hits_total
	cacheMisses   *telemetry.Counter   // core_cache_misses_total

	opRefine   *telemetry.Counter // core_ops_total{op="refine-search"}
	opPrefix   *telemetry.Counter // core_ops_total{op="prefix-search"}
	refineHits *telemetry.Counter // core_refine_hits_total
	refineMiss *telemetry.Counter // core_refine_fallbacks_total

	// core_search_class_total{class}: one count per dispatched query,
	// labeled by its class.
	classSuperset *telemetry.Counter
	classPin      *telemetry.Counter
	classPrefix   *telemetry.Counter

	hotPromotions     *telemetry.Counter // core_hot_promotions_total
	hotDemotions      *telemetry.Counter // core_hot_demotions_total
	softInvalidations *telemetry.Counter // core_soft_invalidations_total
	softServes        *telemetry.Counter // core_soft_serves_total
	softForwards      *telemetry.Counter // core_soft_forwards_total

	batchSize  *telemetry.Histogram // core_search_batch_size
	coalesced  *telemetry.Counter   // core_search_msgs_coalesced_total
	physFrames *telemetry.Counter   // core_search_phys_frames_total

	shardLockWait *telemetry.Histogram // core_server_shard_lock_wait_ns

	searchAbandoned *telemetry.Counter // core_search_abandoned_total

	snapshotFailures *telemetry.Counter // core_snapshot_failures_total
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	ops := reg.CounterVec("core_ops_total", "op")
	classes := reg.CounterVec("core_search_class_total", "class")
	return serverMetrics{
		opInsert:      ops.With("insert"),
		opDelete:      ops.With("delete"),
		opPin:         ops.With("pin-search"),
		opSubBatch:    ops.With("sub-query-batch"),
		opMigChunk:    ops.With("migrate-chunk"),
		opMigCommit:   ops.With("migrate-commit"),
		opSearch:      ops.With("superset-search"),
		searchNodes:   reg.Counter("core_search_nodes_total"),
		searchMsgs:    reg.Counter("core_search_msgs_total"),
		searchFailed:  reg.Counter("core_search_failed_nodes_total"),
		searchRounds:  reg.Counter("core_search_rounds_total"),
		searchMatches: reg.Counter("core_search_matches_total"),
		searchLatency: reg.Histogram("core_search_duration_ns", telemetry.DefaultLatencyBuckets),
		cacheHits:     reg.Counter("core_cache_hits_total"),
		cacheMisses:   reg.Counter("core_cache_misses_total"),

		opRefine:   ops.With("refine-search"),
		opPrefix:   ops.With("prefix-search"),
		refineHits: reg.Counter("core_refine_hits_total"),
		refineMiss: reg.Counter("core_refine_fallbacks_total"),

		classSuperset: classes.With(ClassSuperset.String()),
		classPin:      classes.With(ClassPin.String()),
		classPrefix:   classes.With(ClassPrefix.String()),

		hotPromotions:     reg.Counter("core_hot_promotions_total"),
		hotDemotions:      reg.Counter("core_hot_demotions_total"),
		softInvalidations: reg.Counter("core_soft_invalidations_total"),
		softServes:        reg.Counter("core_soft_serves_total"),
		softForwards:      reg.Counter("core_soft_forwards_total"),

		batchSize:  reg.Histogram("core_search_batch_size", telemetry.ExpBuckets(1, 2, 11)),
		coalesced:  reg.Counter("core_search_msgs_coalesced_total"),
		physFrames: reg.Counter("core_search_phys_frames_total"),
		// Lock waits sit well under the RPC latency floor; buckets span
		// ~256ns to ~17ms in powers of 4.
		shardLockWait: reg.Histogram("core_server_shard_lock_wait_ns", telemetry.ExpBuckets(256, 4, 9)),

		searchAbandoned: reg.Counter("core_search_abandoned_total"),

		snapshotFailures: reg.Counter("core_snapshot_failures_total"),
	}
}

// classCounter maps a query class to its core_search_class_total
// series; an unknown class, which the root rejects, has none (nil, which
// every instrument accepts).
func (m *serverMetrics) classCounter(c QueryClass) *telemetry.Counter {
	switch c {
	case ClassSuperset:
		return m.classSuperset
	case ClassPin:
		return m.classPin
	case ClassPrefix:
		return m.classPrefix
	default:
		return nil
	}
}

// NewServer builds an index server.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Resolver == nil || cfg.Sender == nil {
		return nil, fmt.Errorf("core: server needs a Resolver and a Sender")
	}
	cube, err := hypercube.New(cfg.Hasher.Dim())
	if err != nil {
		return nil, err
	}
	switch cfg.CachePolicy {
	case "", CachePolicyHot, CachePolicyFIFO:
	default:
		return nil, fmt.Errorf("core: unknown cache policy %q (want %q or %q)", cfg.CachePolicy, CachePolicyHot, CachePolicyFIFO)
	}
	if cfg.HotReplicas > 0 && cfg.CacheCapacity <= 0 {
		// A replica answers from its result cache or asks the owner; a
		// fleet without caches would only add a hop to every search.
		return nil, fmt.Errorf("core: HotReplicas %d needs a result cache (CacheCapacity > 0)", cfg.HotReplicas)
	}
	shards := make([]*tableShard, min(ceilPow2(runtime.GOMAXPROCS(0)), maxShards))
	for i := range shards {
		shards[i] = &tableShard{tables: make(map[string]map[hypercube.Vertex]*table)}
	}
	s := &Server{
		cfg:      cfg,
		cube:     cube,
		met:      newServerMetrics(cfg.Telemetry),
		shards:   shards,
		cache:    newResultCache(cfg.CachePolicy, cfg.CacheCapacity),
		sessions: newSessionStore(maxSessions),
		soft:     newSoftStore(),
	}
	s.hot = newHotVertexManager(s, cfg.HotReplicas)
	s.softForwardFails.c = cfg.Telemetry.Counter("core_soft_forward_failures_total")
	s.softInvalidateFails.c = cfg.Telemetry.Counter("core_soft_invalidation_failures_total")
	if cfg.Admission != nil {
		s.adm = admission.New(*cfg.Admission, cfg.Telemetry)
	}
	// The manager must exist before recovery: replayed OpMigrate and
	// OpDelete records rebuild the resumable-cursor and tombstone state.
	s.migrate = newMigrationManager(s, cfg.Migration, cfg.Telemetry)
	if cfg.DataDir != "" {
		st, err := store.Open(store.Config{
			Dir:           cfg.DataDir,
			Fsync:         cfg.Fsync,
			SnapshotEvery: cfg.SnapshotEvery,
			Telemetry:     cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		s.store = st
		if _, err := st.Recover(s.applyRecord); err != nil {
			st.Close()
			return nil, fmt.Errorf("core: recover data dir %s: %w", cfg.DataDir, err)
		}
	}
	if reg := cfg.Telemetry; reg != nil {
		// Sampled at snapshot time; with a shared registry every
		// server's callback contributes to a deployment-wide sum.
		reg.GaugeFunc("core_index_vertices", func() int64 { return int64(s.Stats().Vertices) })
		reg.GaugeFunc("core_index_entries", func() int64 { return int64(s.Stats().Entries) })
		reg.GaugeFunc("core_index_objects", func() int64 { return int64(s.Stats().Objects) })
		reg.GaugeFunc("core_cache_entries", func() int64 { return int64(s.cache.len()) })
		reg.GaugeFunc("core_cache_units", func() int64 { return int64(s.cache.unitCount()) })
		reg.GaugeFunc("core_soft_roots", func() int64 { return int64(s.soft.count()) })
		reg.GaugeFunc("core_sessions_active", func() int64 { return int64(s.sessions.len()) })
		for i, sh := range s.shards {
			sh := sh
			reg.GaugeFunc("core_server_shard_entries{shard=\""+strconv.Itoa(i)+"\"}", sh.entryCount)
		}
	}
	return s, nil
}

// ErrNotOwner rejects requests routed to a node that does not own the
// vertex key (a stale route after a join, or a ring still healing after
// a crash): dht.ErrNotOwner, which the routing rule heals. It is a
// topology error, not an application outcome: Replicated treats it as
// failover-worthy, unlike other remote errors.
var ErrNotOwner = dht.ErrNotOwner

// ownedArc is one reading of the OwnedArc hook: the ring arc
// (pred, self] the node owned at that moment, or nothing at all. The
// zero value is the whole ring — what a server without a hook owns —
// because pred == self is dht.Between's full interval.
type ownedArc struct {
	pred, self dht.ID
	none       bool
}

// arc reads the owned arc. It takes the DHT layer's lock, so it is
// called before any table lock — once per request, once per batch
// frame, never per unit.
func (s *Server) arc() ownedArc {
	if s.cfg.OwnedArc == nil {
		return ownedArc{}
	}
	pred, self, joined := s.cfg.OwnedArc()
	return ownedArc{pred: pred, self: self, none: !joined}
}

// owns tests vertex v of instance against the arc. tbl is the vertex's
// hosted table when the caller has it in hand (its ring key is stored);
// a vertex without one is hashed, unless the arc settles the answer.
func (a ownedArc) owns(tbl *table, instance string, v hypercube.Vertex) bool {
	if a.none || a.pred == a.self {
		return !a.none // nothing, or the whole ring: no key needed
	}
	if tbl != nil {
		return dht.Between(tbl.ringKey, a.pred, a.self)
	}
	return dht.Between(VertexKey(instance, v), a.pred, a.self)
}

// owns validates ownership of one vertex, for the single-vertex
// messages.
func (s *Server) owns(instance string, v hypercube.Vertex) bool {
	return s.arc().owns(nil, instance, v)
}

// gateInfo classifies client-facing bodies for admission control: the
// messages a client (not another index server mid-traversal) sends.
// The from address is useless for identity — inmem sends pass an empty
// origin and tcpnet requests carry none — so the client ID rides in
// the message itself.
func gateInfo(body any) (clientID string, deadlineUnixNano int64, gated bool) {
	switch m := body.(type) {
	case msgTQuery:
		return m.ClientID, m.DeadlineUnixNano, true
	case msgInsertEntry:
		return m.ClientID, 0, true
	case msgDeleteEntry:
		return m.ClientID, 0, true
	}
	// Everything else — wave traffic, migration chunks
	// and commits, relayed sub-queries — is interior and never gated.
	// Relayed sub-queries in particular are the old-owner half of a
	// migration double-read (every class, pin included): gating them
	// would let admission break the byte-identical-answers guarantee
	// mid-churn.
	return "", 0, false
}

// Handler processes index-protocol messages. Unknown message types
// yield the bare ErrUnhandledMessage sentinel so the endpoint can be
// muxed with other layers (e.g. Chord). Client-facing operations pass
// through the admission controller (when configured) and pick up the
// deadline the message carries; interior wave traffic is never gated.
func (s *Server) Handler(ctx context.Context, from transport.Addr, body any) (any, error) {
	clientID, deadlineNS, gated := gateInfo(body)
	if gated {
		// The wire deadline is applied before admission so queue waits
		// are deadline-aware even over tcpnet, whose handler context
		// carries none.
		var cancel context.CancelFunc
		ctx, cancel = frameDeadline(ctx, deadlineNS)
		defer cancel()
		if s.adm != nil {
			release, err := s.adm.Acquire(ctx, clientID)
			if err != nil {
				return nil, err
			}
			defer release()
		}
	}
	return s.handle(ctx, from, body)
}

// handle dispatches one admitted (or ungated) message.
func (s *Server) handle(ctx context.Context, from transport.Addr, body any) (any, error) {
	switch msg := body.(type) {
	case msgInsertEntry:
		if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
			return nil, ErrNotOwner
		}
		s.met.opInsert.Inc()
		if err := s.insertEntry(msg.Instance, hypercube.Vertex(msg.Vertex), msg.SetKey, msg.ObjectID); err != nil {
			return nil, err
		}
		return respAck{}, nil
	case msgDeleteEntry:
		if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
			return nil, ErrNotOwner
		}
		s.met.opDelete.Inc()
		found, err := s.deleteEntry(msg.Instance, hypercube.Vertex(msg.Vertex), msg.SetKey, msg.ObjectID)
		if err != nil {
			return nil, err
		}
		return respDeleteEntry{Found: found}, nil
	case msgSubQueryBatch:
		// Ownership is validated per unit against one reading of the
		// owned arc, not for the whole frame: a ring change may have
		// re-homed a subset of the batch's vertices, and the root falls
		// back to one-unit sends for exactly those.
		s.met.opSubBatch.Inc()
		return s.subQueryBatch(ctx, msg), nil
	case msgMigrateChunk:
		s.met.opMigChunk.Inc()
		// Migration frames carry the manager's per-chunk deadline the
		// way search frames do; an expired one fails before the scan.
		ctx, cancel := frameDeadline(ctx, msg.DeadlineUnixNano)
		defer cancel()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := s.migrateChunk(ctx, msg)
		if err == nil {
			s.noteHandOff(msg.NewID, -1)
		}
		return resp, err
	case msgMigrateCommit:
		s.met.opMigCommit.Inc()
		ctx, cancel := frameDeadline(ctx, msg.DeadlineUnixNano)
		defer cancel()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entries, err := s.extractRange(dht.ID(msg.NewID), dht.ID(msg.OwnerID))
		if err != nil {
			return nil, err
		}
		s.noteHandOff(msg.NewID, len(entries))
		return respMigrateCommit{Dropped: len(entries)}, nil
	case msgTQuery:
		s.met.classCounter(msg.Class).Inc()
		switch msg.Class {
		case ClassPin:
			if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
				return nil, ErrNotOwner
			}
			s.met.opPin.Inc()
			return s.runQuery(ctx, msg)
		case ClassPrefix:
			if msg.SoftOnly {
				// Soft replicas serve one superset root; a prefix
				// multicast is coordinator work, so spread requests
				// bounce back to the owner path.
				return respTQuery{ErrCode: errCodeNoSoftCopy}, nil
			}
			if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
				return nil, ErrNotOwner
			}
			s.met.opPrefix.Inc()
			return s.runQuery(ctx, msg)
		}
		if msg.RefineFromKey != "" {
			// Explicit refinement: the receiver must own the ANCESTOR
			// root (it holds the cached state); msg.Vertex carries the
			// refined root, which it typically does not own.
			if !s.owns(msg.Instance, hypercube.Vertex(msg.RefineFromVertex)) {
				return nil, ErrNotOwner
			}
			s.met.opRefine.Inc()
			return s.runRefine(msg), nil
		}
		// Only a SoftOnly request is served by a soft replica: soft
		// replicas of a hot root are, by design, nodes that do NOT own
		// the vertex, and spreading clients address them directly. Any
		// other request takes the owner path or is refused, so the
		// owner-bound forward of a soft replica's cache miss can never
		// be soft-served or forwarded again.
		if msg.SoftOnly {
			if !s.soft.holds(msg.Instance, hypercube.Vertex(msg.Vertex)) ||
				msg.SessionID != 0 || msg.Cumulative || msg.NoCache {
				// A spreading client reached us for a root we no longer
				// serve, or with a search no cache answers; answering
				// from our own tables would be wrong (we are not this
				// vertex's owner), so bounce it back.
				return respTQuery{ErrCode: errCodeNoSoftCopy}, nil
			}
			s.met.opSearch.Inc()
			resp, err := s.runQuery(ctx, msg)
			if err == nil && resp.ErrCode != errCodeNoSoftCopy {
				s.met.softServes.Inc()
			}
			return resp, err
		}
		if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
			return nil, ErrNotOwner
		}
		s.met.opSearch.Inc()
		return s.runQuery(ctx, msg)
	case msgSoftPromote:
		if s.soft.applyPromote(msg) {
			// A new promotion: the owner told this replica nothing of the
			// root's mutations since the last one ended, so what it
			// cached for the root then may be stale.
			s.cache.dropRoot(msg.Instance, hypercube.Vertex(msg.Vertex))
		}
		return respAck{}, nil
	case msgSoftInvalidate:
		s.soft.applyInvalidate(msg)
		if msg.SetKey != "" {
			// The owner mutated the promoted vertex: run the same
			// subset-invalidation event over this node's result cache
			// that the owner just ran over its own.
			s.cache.invalidateSubsetsOf(msg.Instance, keyword.CanonicalKey(msg.SetKey))
		}
		return respAck{}, nil
	default:
		return nil, ErrUnhandledMessage
	}
}

// logEntryMutation appends rec to the WAL and applies it while
// holding sh's write lock — sh must be the shard owning the record's
// (instance, vertex). Holding the shard lock across append + apply
// makes WAL order equal apply order for any two records touching the
// same entry (same entry ⇒ same shard): without it, two concurrent
// mutations of one entry could append as A,B but apply as B,A, and
// recovery — which replays log order — would resurrect the loser.
// The stateMu read fence spans the pair so compaction's write side
// can never cut the log between an append and its apply, and so
// range mutations (logRangeMutation) are totally ordered against
// entry mutations. When the server is not durable the fence and the
// append both vanish (nil store ⇒ zero hot-path cost beyond the
// shard lock the apply always needed).
func (s *Server) logEntryMutation(sh *tableShard, rec store.Record, applyLocked func()) error {
	if s.store == nil {
		sh.lock(s.met.shardLockWait)
		applyLocked()
		sh.mu.Unlock()
		return nil
	}
	s.stateMu.RLock()
	sh.lock(s.met.shardLockWait)
	due, err := s.store.Append(rec)
	if err != nil {
		sh.mu.Unlock()
		s.stateMu.RUnlock()
		return fmt.Errorf("core: wal append: %w", err)
	}
	applyLocked()
	sh.mu.Unlock()
	s.stateMu.RUnlock()
	if due {
		s.compact()
	}
	return nil
}

// logRangeMutation appends and applies a record that touches every
// shard (a handoff, a migration checkpoint). A single shard lock cannot
// order it against concurrent entry mutations, so it holds stateMu
// exclusively across append + apply instead: entry mutations hold the
// read side for their whole append+apply window, so the log position
// of the range record exactly matches its position in the apply order.
func (s *Server) logRangeMutation(rec store.Record, apply func()) error {
	if s.store == nil {
		apply()
		return nil
	}
	s.stateMu.Lock()
	due, err := s.store.Append(rec)
	if err != nil {
		s.stateMu.Unlock()
		return fmt.Errorf("core: wal append: %w", err)
	}
	apply()
	s.stateMu.Unlock()
	if due {
		s.compact()
	}
	return nil
}

// insertEntry adds ⟨K, σ⟩ to the table of vertex v in the given index
// instance and invalidates cached query results the new entry could
// extend. Durable servers append the mutation to the WAL before it
// applies; an append failure leaves the table untouched. A set key is
// logged, stored and invalidated under its canonical spelling.
func (s *Server) insertEntry(instance string, v hypercube.Vertex, setKey, objectID string) error {
	setKey = keyword.CanonicalKey(setKey)
	sh := s.shardFor(instance, v)
	err := s.logEntryMutation(sh, store.Record{
		Op: store.OpInsert, Instance: instance, Vertex: uint64(v),
		SetKey: setKey, ObjectID: objectID,
	}, func() { s.applyInsertLocked(sh, instance, v, setKey, objectID) })
	if err != nil {
		return err
	}
	// The cache has its own lock; invalidating outside the shard lock
	// keeps the lock order flat (shard locks never nest with others).
	s.cache.invalidateSubsetsOf(instance, setKey)
	// A promoted root whose table changed must demote (its replicas'
	// cached answers may now be stale).
	s.hot.noteMutation(instance, v, setKey)
	return nil
}

// applyInsert is the table mutation of insertEntry: no logging, no
// cache work. Recovery replays WAL records through it.
func (s *Server) applyInsert(instance string, v hypercube.Vertex, setKey, objectID string) {
	sh := s.shardFor(instance, v)
	sh.lock(s.met.shardLockWait)
	defer sh.mu.Unlock()
	s.applyInsertLocked(sh, instance, v, setKey, objectID)
}

// applyInsertLocked is applyInsert under a caller-held write lock on
// sh (the shard owning (instance, v)); logEntryMutation uses it to
// keep the WAL append and the apply in one critical section.
func (s *Server) applyInsertLocked(sh *tableShard, instance string, v hypercube.Vertex, setKey, objectID string) {
	vertices, ok := sh.tables[instance]
	if !ok {
		vertices = make(map[hypercube.Vertex]*table)
		sh.tables[instance] = vertices
	}
	tbl, ok := vertices[v]
	if !ok {
		tbl = &table{ringKey: VertexKey(instance, v)}
		vertices[v] = tbl
	}
	tbl.insert(setKey, objectID)
	// Under the shard lock, so it serializes against noteDelete for the
	// same entry: a re-inserted entry is live again (no-op outside an
	// open migration window).
	s.migrate.noteInsert(instance, v, setKey, objectID)
}

// deleteEntry removes ⟨K, σ⟩ from the table of vertex v in the given
// instance. A delete of an absent entry is still logged on durable
// servers — replaying it is a no-op, so the record is harmless.
func (s *Server) deleteEntry(instance string, v hypercube.Vertex, setKey, objectID string) (bool, error) {
	setKey = keyword.CanonicalKey(setKey)
	sh := s.shardFor(instance, v)
	var found bool
	err := s.logEntryMutation(sh, store.Record{
		Op: store.OpDelete, Instance: instance, Vertex: uint64(v),
		SetKey: setKey, ObjectID: objectID,
	}, func() { found = s.applyDeleteLocked(sh, instance, v, setKey, objectID) })
	if err != nil {
		return false, err
	}
	if found {
		s.cache.invalidateSubsetsOf(instance, setKey)
		s.hot.noteMutation(instance, v, setKey)
	}
	return found, nil
}

// applyDelete is the table mutation of deleteEntry.
func (s *Server) applyDelete(instance string, v hypercube.Vertex, setKey, objectID string) bool {
	sh := s.shardFor(instance, v)
	sh.lock(s.met.shardLockWait)
	defer sh.mu.Unlock()
	return s.applyDeleteLocked(sh, instance, v, setKey, objectID)
}

// applyDeleteLocked is applyDelete under a caller-held write lock on
// sh (the shard owning (instance, v)); see applyInsertLocked.
func (s *Server) applyDeleteLocked(sh *tableShard, instance string, v hypercube.Vertex, setKey, objectID string) bool {
	// Tombstone before the presence checks: a delete of an entry whose
	// migration chunk has not arrived yet finds nothing locally but
	// must still prevent the chunk from resurrecting it. Shard lock
	// held, so this serializes against insertMigrated's check.
	s.migrate.noteDelete(instance, v, setKey, objectID)
	vertices, ok := sh.tables[instance]
	if !ok {
		return false
	}
	tbl, ok := vertices[v]
	if !ok {
		return false
	}
	found := tbl.remove(setKey, objectID)
	if found && tbl.objectCount() == 0 {
		delete(vertices, v)
		if len(vertices) == 0 {
			delete(sh.tables, instance)
		}
	}
	return found
}

// subQueryBatch answers a frame of sub-queries, sparsely: the response
// lists only the units that have something to say — matches, matches
// beyond the window, or an error code — each tagged with its index in
// msg.Units, in increasing order. A unit it does not list was owned,
// scanned and empty. Every unit is tested against one reading of the
// owned arc, and its scan is migration-aware: a vertex inside an open
// inbound window double-reads the old owner (unitScanner.read). A
// relayed frame IS that double-read, so it answers strictly from the
// local tables, with no ownership test, and is never re-relayed. The
// frame is scanned in order on the goroutine that received it (DESIGN
// §8), so hits come out by increasing Index as they are found, located
// by one unitScanner: a stripe's read lock is held across a run of
// units in that stripe, never across the frame, so frames of concurrent
// searches spread over the cores. Hits and matches collect in a pooled
// frameScratch and leave it in one copy each (frameScratch.reply).
func (s *Server) subQueryBatch(ctx context.Context, msg msgSubQueryBatch) respSubQueryBatch {
	ctx, cancel := frameDeadline(ctx, msg.DeadlineUnixNano)
	defer cancel()
	pred := predFor(msg.Class, msg.QueryKey)
	arc := s.arc()
	root := hypercube.Vertex(msg.Root)
	sc := s.scanner(msg.Instance)
	defer sc.release()
	fs := framePool.Get().(*frameScratch)
	defer fs.release()
	for i, u := range msg.Units {
		v := hypercube.Vertex(u.Vertex)
		hit := respSubUnit{Index: i}
		start, owned := len(fs.matches), true
		switch {
		case ctx.Err() != nil:
			// A cancelled search abandons its remaining units: the root
			// is failing the whole search, so partially scanned frames
			// cost nothing extra, and the handler frees up for live
			// queries.
			hit.ErrCode = errCodeCancelled
		case msg.Relay:
			fs.matches, hit.Remaining, _ = sc.local(fs.matches, ownedArc{}, v, root, &pred, u.Skip, msg.Limit)
		default:
			fs.matches, hit.Remaining, owned = sc.read(ctx, fs.matches, arc, v, root, &pred, u.Skip, msg.Limit)
		}
		if !owned {
			hit.ErrCode = errCodeNotOwner
		}
		if end := len(fs.matches); hit.ErrCode != errCodeNone || end > start || hit.Remaining > 0 {
			hit.Matches = fs.matches[start:end:end] // its length places it in reply's arena
			fs.hits = append(fs.hits, hit)
		}
	}
	return fs.reply()
}

// frameScratch is a serving peer's working memory for one frame: the
// hits found so far and, back to back in hit order, their matches. It
// is pooled, bounded by maxPooledFrame elements a slice, and cleared
// before it is pooled, so it never keeps an answer alive.
type frameScratch struct {
	hits    []respSubUnit
	matches []Match
}

const maxPooledFrame = 1 << 10

var framePool = sync.Pool{New: func() any { return new(frameScratch) }}

// reply is the frame's answer in two allocations: an exactly-sized
// []respSubUnit and one []Match arena, each hit's Matches a three-index
// window of it, so an append by any holder cannot scribble over the
// next hit's — the layout respSubQueryBatch.UnmarshalWire builds on TCP.
func (fs *frameScratch) reply() respSubQueryBatch {
	if len(fs.hits) == 0 {
		return respSubQueryBatch{}
	}
	hits, arena, off := slices.Clone(fs.hits), slices.Clone(fs.matches), 0
	for i := range hits {
		n := len(hits[i].Matches)
		hits[i].Matches = nil
		if n > 0 {
			hits[i].Matches = arena[off : off+n : off+n]
		}
		off += n
	}
	return respSubQueryBatch{Hits: hits}
}

func (fs *frameScratch) release() {
	clear(fs.hits)
	clear(fs.matches)
	fs.hits, fs.matches = fs.hits[:0], fs.matches[:0]
	if cap(fs.hits) <= maxPooledFrame && cap(fs.matches) <= maxPooledFrame {
		framePool.Put(fs)
	}
}

// frameDeadline bounds ctx by the deadline a frame carries (UnixNano,
// 0 = none). tcpnet handler contexts know nothing of the caller's, so a
// search or migration frame re-derives it here, once; a wire deadline
// no earlier than the one ctx already has — the inmem case, where the
// handler runs under the caller's context — changes nothing and costs
// nothing.
func frameDeadline(ctx context.Context, unixNano int64) (context.Context, context.CancelFunc) {
	if unixNano <= 0 {
		return ctx, noCancel
	}
	dl := time.Unix(0, unixNano)
	if cur, ok := ctx.Deadline(); ok && !dl.Before(cur) {
		return ctx, noCancel
	}
	return context.WithDeadline(ctx, dl)
}

// noCancel is the CancelFunc of a context frameDeadline left as it was.
func noCancel() {}

// cubeFor returns the hypercube geometry for an instance's declared
// dimensionality (0 falls back to the server's default).
func (s *Server) cubeFor(dim int) (hypercube.Cube, error) {
	if dim == 0 || dim == s.cube.Dim() {
		return s.cube, nil
	}
	return hypercube.New(dim)
}

// scanVertex collects the entries of vertex v's table matching the
// query predicate, in canonical order, under the vertex's shard read
// lock (see table.scan for the window arguments) — provided the vertex
// falls in arc, which it tests with the table in hand; owned reports
// the outcome. Callers that settled ownership earlier, or must not test
// it, pass the zero arc.
func (s *Server) scanVertex(arc ownedArc, instance string, v, root hypercube.Vertex, pred queryPred, skip, limit int) (matches []Match, remaining int, owned bool) {
	sc := s.scanner(instance)
	defer sc.release()
	return sc.local(nil, arc, v, root, &pred, skip, limit)
}

// unitScanner locates the units of one frame (or of the root's own
// units of one wave), all of one instance, in order. The instance is
// hashed once; each unit's stripe is folded from that hash, and a
// stripe's read lock, with its table map for the instance, is kept
// across a run of units in that stripe. It never holds a lock across a
// call that may lock again or send: a unit inside an open migration
// window releases it before the double-read. release must be called
// before the scanner is dropped.
type unitScanner struct {
	s        *Server
	instance string
	hash     uint64
	held     *tableShard                 // read-locked stripe; nil when none
	tables   map[hypercube.Vertex]*table // held.tables[instance]
}

func (s *Server) scanner(instance string) unitScanner {
	return unitScanner{s: s, instance: instance, hash: instanceHash(instance)}
}

// local is scanVertex on the held stripe, appending the window to dst:
// the local tables only, with no migration window consulted.
func (sc *unitScanner) local(dst []Match, arc ownedArc, v, root hypercube.Vertex, pred *queryPred, skip, limit int) (matches []Match, remaining int, owned bool) {
	if sh := sc.s.shardAt(sc.hash, v); sh != sc.held {
		sc.release()
		sh.rlock(sc.s.met.shardLockWait)
		sc.held, sc.tables = sh, sh.tables[sc.instance]
	}
	tbl := sc.tables[v]
	if !arc.owns(tbl, sc.instance, v) {
		return dst, 0, false
	}
	if tbl != nil {
		dst, remaining = tbl.scan(dst, v, root, pred, skip, limit)
	}
	return dst, remaining, true
}

// read is the migration-aware local: while v sits in an open inbound
// window it releases the held stripe and double-reads the old owner
// (Server.doubleRead). Outside a window it costs one atomic load more
// than local.
func (sc *unitScanner) read(ctx context.Context, dst []Match, arc ownedArc, v, root hypercube.Vertex, pred *queryPred, skip, limit int) ([]Match, int, bool) {
	if sc.s.migrate.windowOpen() {
		sc.release()
		if srcs := sc.s.migrate.sources(sc.instance, v); len(srcs) > 0 {
			matches, remaining, owned := sc.s.doubleRead(ctx, srcs, arc, sc.instance, v, root, *pred, skip, limit)
			return append(dst, matches...), remaining, owned
		}
	}
	return sc.local(dst, arc, v, root, pred, skip, limit)
}

// release drops the held stripe lock, if any.
func (sc *unitScanner) release() {
	if sc.held != nil {
		sc.held.mu.RUnlock()
		sc.held, sc.tables = nil, nil
	}
}

// TableStats summarizes this server's storage load (diagnostics and
// the load-distribution experiments).
type TableStats struct {
	Vertices int // logical vertices with at least one entry
	Entries  int // ⟨keyword set, objects⟩ entries
	Objects  int // total object IDs indexed (with multiplicity)

	// SnapshotFailures counts WAL compactions that failed to write
	// their snapshot (the WAL keeps growing until one succeeds);
	// LastSnapshotError is the latest cause, empty when none.
	SnapshotFailures  uint64
	LastSnapshotError string
	// SyncFailures counts the WAL's group commits (FsyncInterval) that
	// failed to flush or fsync; LastSyncError is the latest cause.
	SyncFailures  uint64
	LastSyncError string
	// SoftForwardFailures counts soft-replica cache misses whose
	// forward to the root's owner failed, so the replica bounced the
	// request to the client's owner path; LastSoftForwardError is the
	// latest cause.
	SoftForwardFailures  uint64
	LastSoftForwardError string
	// SoftInvalidationFailures counts invalidations this owner could
	// not deliver to a soft replica, which then keeps serving its
	// cached answers for the root; LastSoftInvalidationError is the
	// latest cause, naming the replica.
	SoftInvalidationFailures  uint64
	LastSoftInvalidationError string
}

// Stats returns current storage counters, aggregated over every index
// instance the node hosts. Shards are read-locked one at a time, so
// the totals are per-shard consistent but not a global snapshot —
// fine for the load experiments and diagnostics they feed.
func (s *Server) Stats() TableStats {
	st := TableStats{SnapshotFailures: s.snapshotFailures.Load()}
	if msg := s.lastSnapshotErr.Load(); msg != nil {
		st.LastSnapshotError = *msg
	}
	if s.store != nil {
		st.SyncFailures, st.LastSyncError = s.store.SyncFailures()
	}
	st.SoftForwardFailures, st.LastSoftForwardError = s.softForwardFails.read()
	st.SoftInvalidationFailures, st.LastSoftInvalidationError = s.softInvalidateFails.read()
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, vertices := range sh.tables {
			st.Vertices += len(vertices)
			for _, tbl := range vertices {
				st.Entries += tbl.entryCount()
				st.Objects += tbl.objectCount()
			}
		}
		sh.mu.RUnlock()
	}
	return st
}

// CacheStats exposes cache effectiveness counters.
func (s *Server) CacheStats() (hits, misses uint64) {
	return s.cache.stats()
}

// CacheCapacity returns the configured root-result cache capacity in
// object-ID units (0 = caching disabled).
func (s *Server) CacheCapacity() int { return s.cfg.CacheCapacity }

// CacheSnapshot returns a point-in-time view of the result cache:
// policy, capacity, occupancy and per-instance hit ratios.
func (s *Server) CacheSnapshot() CacheSnapshot { return s.cache.snapshot() }

// HotPromotedRoots lists the currently promoted hot roots as
// "instance/vertex" strings in sorted order; the promotion-determinism
// test fingerprints replayed query logs with it.
func (s *Server) HotPromotedRoots() []string {
	keys := s.hot.promotedRoots()
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.instance+"/"+strconv.FormatUint(uint64(k.vertex), 10))
	}
	sort.Strings(out)
	return out
}

// extractRange removes and returns the entries a newly joined
// predecessor now owns: those whose vertex key is outside (newID,
// ownerID] — mirroring Chord's reference handoff on join. The logged
// OpHandoff record carries only the range bounds: which entries leave
// is a deterministic function of key and bounds, so replay reproduces
// the extraction exactly — provided every entry record lands in the
// log on the same side of the handoff as its apply, which
// logRangeMutation's exclusive fence guarantees.
func (s *Server) extractRange(newID, ownerID dht.ID) ([]store.Entry, error) {
	var out []store.Entry
	err := s.logRangeMutation(store.Record{
		Op: store.OpHandoff, NewID: uint64(newID), OwnerID: uint64(ownerID),
	}, func() { out = s.applyExtractRange(newID, ownerID) })
	return out, err
}

// appendEntries appends tbl — vertex v's table in the given instance —
// to out, in canonical order. Callers hold v's shard lock.
func appendEntries(out []store.Entry, instance string, v hypercube.Vertex, tbl *table) []store.Entry {
	tbl.walk(func(setKey, id string) bool {
		out = append(out, store.Entry{Instance: instance, Vertex: uint64(v), SetKey: setKey, ObjectID: id})
		return true
	})
	return out
}

// applyExtractRange is the table mutation of extractRange.
func (s *Server) applyExtractRange(newID, ownerID dht.ID) []store.Entry {
	var out []store.Entry
	for _, sh := range s.shards {
		sh.lock(s.met.shardLockWait)
		for instance, vertices := range sh.tables {
			for v, tbl := range vertices {
				if dht.Between(tbl.ringKey, newID, ownerID) {
					continue // still ours
				}
				out = appendEntries(out, instance, v, tbl)
				delete(vertices, v)
			}
			if len(vertices) == 0 {
				delete(sh.tables, instance)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// applyRecord replays one recovered WAL/snapshot record into the table
// state. No cache invalidation: recovery runs before the server serves
// queries (fresh caches), and the sim's in-process recovery resets the
// cache alongside the tables.
func (s *Server) applyRecord(rec store.Record) error {
	switch rec.Op {
	case store.OpInsert:
		s.applyInsert(rec.Instance, hypercube.Vertex(rec.Vertex), rec.SetKey, rec.ObjectID)
	case store.OpDelete:
		s.applyDelete(rec.Instance, hypercube.Vertex(rec.Vertex), rec.SetKey, rec.ObjectID)
	case store.OpHandoff:
		s.applyExtractRange(dht.ID(rec.NewID), dht.ID(rec.OwnerID))
	case store.OpClear:
		// Logged by the graceful drain of earlier releases; nothing
		// writes it any more, but their data directories still replay.
		s.clearTables()
	case store.OpMigrate:
		s.migrate.applyRecoveredRecord(rec)
	}
	return nil
}

// compact snapshots the full table state and truncates the WAL. The
// compacting flag collapses concurrent triggers; stateMu's write side
// excludes every mutator for the duration, so the snapshot is a
// consistent cut and nothing can append between dump and truncation.
func (s *Server) compact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if !s.store.SnapshotDue() {
		return // another trigger compacted while we awaited the fence
	}
	// On failure the WAL simply keeps growing and the next append
	// retries (the store still reports a snapshot due); durability is
	// never weakened by a failed compaction, but a node that can no
	// longer compact is a node running out of disk, so the failure is
	// counted and its cause kept for Stats.
	if err := s.store.WriteSnapshot(s.dumpAll); err != nil {
		s.met.snapshotFailures.Inc()
		s.snapshotFailures.Add(1)
		msg := err.Error()
		s.lastSnapshotErr.Store(&msg)
	}
}

// dumpAll emits every live entry as an OpInsert record (the snapshot
// body). Callers hold stateMu exclusively, so shard read locks are
// only needed to order with lock-free readers.
func (s *Server) dumpAll(emit func(store.Record) error) error {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for instance, vertices := range sh.tables {
			for v, tbl := range vertices {
				var err error
				tbl.walk(func(setKey, id string) bool {
					err = emit(store.Record{
						Op: store.OpInsert, Instance: instance,
						Vertex: uint64(v), SetKey: setKey, ObjectID: id,
					})
					return err == nil
				})
				if err != nil {
					sh.mu.RUnlock()
					return err
				}
			}
		}
		sh.mu.RUnlock()
	}
	// Open migration windows ride along: the snapshot replaces the WAL
	// holding their cursors and tombstones.
	return s.migrate.dumpState(emit)
}

// CrashReset wipes the in-memory table, cache and session state while
// leaving the data directory untouched — the crash model the sim's
// durable-recovery mode uses: process memory is lost, disk survives.
func (s *Server) CrashReset() {
	s.stateMu.Lock()
	s.clearTables()
	s.stateMu.Unlock()
	s.cache.reset()
	s.sessions.reset()
	s.migrate.crashReset()
	// Soft state is volatile by contract: replica roots and popularity
	// die with the process.
	s.soft.reset()
	s.hot.reset()
}

// clearTables drops every table, one stripe at a time.
func (s *Server) clearTables() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.tables = make(map[string]map[hypercube.Vertex]*table)
		sh.mu.Unlock()
	}
}

// RecoverFromStore replays the data directory (snapshot + WAL tail)
// into the table state and reports how many records were applied. It
// is a no-op on non-durable servers. Replay is idempotent, so
// recovering over live state also converges — but the intended caller
// pairs it with CrashReset.
func (s *Server) RecoverFromStore() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.store.Recover(s.applyRecord)
}

// Close stops the migration manager (waiting out its workers so none
// appends to a closed WAL; interrupted transfers keep their durable
// cursor and resume on restart) and then flushes and closes the
// durability layer. The server must not process further mutations
// afterwards.
func (s *Server) Close() error {
	if s.migrate != nil {
		s.migrate.close()
	}
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}
