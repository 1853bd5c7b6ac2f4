package core

import (
	"context"
	"errors"
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
	// BatchOff dispatches one msgSubQuery per frontier vertex (the
	// paper's literal per-node exchange).
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
	// frequency-sketch admission and capacity auto-tuning — or
	// CachePolicyFIFO, the fixed-size insertion-order cache.
	CachePolicy string
	// CacheTargetHit is the hit ratio the hot policy auto-tunes its
	// capacity toward (grow up to 4× CacheCapacity while below it,
	// shrink back when comfortably above). 0 disables auto-tuning.
	// Ignored by the FIFO policy.
	CacheTargetHit float64
	// HotReplicas enables soft replication of hot root vertices: a
	// root whose fresh-query count crosses HotPromoteThreshold gets
	// its table soft-copied onto this many extra peers, and the owner
	// advertises their addresses so clients spread the load. 0
	// disables the layer (the default).
	HotReplicas int
	// HotPromoteThreshold is the fresh-query count that promotes a
	// root (default 64). Counters halve every ~1024 fresh queries, so
	// the threshold tracks current popularity.
	HotPromoteThreshold int
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
	// joiner) are rejected so callers re-resolve — without this, stale
	// resolver bindings would silently read empty tables on live former
	// owners.
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
	shards []*tableShard
	// scanWorkers bounds the workers a msgSubQueryBatch frame's scans
	// fan out across (GOMAXPROCS; 1 scans every frame sequentially).
	scanWorkers int
	cache       resultCache
	sessions    *sessionStore

	// hot tracks root popularity and manages soft replication of the
	// roots this server owns; soft holds the copies other owners
	// pushed onto this node. served counts every operation this server
	// answered (the load-distribution experiments' per-peer counter —
	// registry counters can't attribute per node when servers share a
	// registry).
	hot    *hotVertexManager
	soft   *softStore
	served atomic.Uint64

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
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	// Inline FNV-1a over the instance bytes and the vertex, allocation
	// free (fmt/string concat would dominate the scan fast path).
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(instance); i++ {
		h ^= uint64(instance[i])
		h *= prime64
	}
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime64
		x >>= 8
	}
	return s.shards[h&uint64(len(s.shards)-1)]
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
	opSub       *telemetry.Counter
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

	batchSize  *telemetry.Histogram // core_search_batch_size
	coalesced  *telemetry.Counter   // core_search_msgs_coalesced_total
	physFrames *telemetry.Counter   // core_search_phys_frames_total

	shardLockWait *telemetry.Histogram // core_server_shard_lock_wait_ns
	scanParUnits  *telemetry.Counter   // core_scan_parallel_units_total

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
		opSub:         ops.With("sub-query"),
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

		batchSize:  reg.Histogram("core_search_batch_size", telemetry.ExpBuckets(1, 2, 11)),
		coalesced:  reg.Counter("core_search_msgs_coalesced_total"),
		physFrames: reg.Counter("core_search_phys_frames_total"),
		// Lock waits sit well under the RPC latency floor; buckets span
		// ~256ns to ~17ms in powers of 4.
		shardLockWait: reg.Histogram("core_server_shard_lock_wait_ns", telemetry.ExpBuckets(256, 4, 9)),
		scanParUnits:  reg.Counter("core_scan_parallel_units_total"),

		searchAbandoned: reg.Counter("core_search_abandoned_total"),

		snapshotFailures: reg.Counter("core_snapshot_failures_total"),
	}
}

// classCounter maps a query class to its core_search_class_total
// series (nil-safe like every instrument; unknown classes fall back to
// the superset series so the total still moves).
func (m *serverMetrics) classCounter(c QueryClass) *telemetry.Counter {
	switch c {
	case ClassPin:
		return m.classPin
	case ClassPrefix:
		return m.classPrefix
	default:
		return m.classSuperset
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
	procs := runtime.GOMAXPROCS(0)
	shards := make([]*tableShard, min(ceilPow2(procs), maxShards))
	for i := range shards {
		shards[i] = &tableShard{tables: make(map[string]map[hypercube.Vertex]*table)}
	}
	s := &Server{
		cfg:         cfg,
		cube:        cube,
		met:         newServerMetrics(cfg.Telemetry),
		shards:      shards,
		scanWorkers: procs,
		cache:       newResultCache(cfg.CachePolicy, cfg.CacheCapacity, cfg.CacheTargetHit),
		sessions:    newSessionStore(maxSessions),
		soft:        newSoftStore(),
	}
	s.hot = newHotVertexManager(s, cfg.HotReplicas, cfg.HotPromoteThreshold)
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
		reg.GaugeFunc("core_cache_queries", func() int64 { return int64(s.cache.len()) })
		reg.GaugeFunc("core_cache_entries", func() int64 { return int64(s.cache.len()) })
		reg.GaugeFunc("core_cache_units", func() int64 { return int64(s.cache.unitCount()) })
		reg.GaugeFunc("core_soft_tables", func() int64 { return int64(s.soft.count()) })
		reg.GaugeFunc("core_sessions_active", func() int64 { return int64(s.sessions.len()) })
		for i, sh := range s.shards {
			sh := sh
			reg.GaugeFunc("core_server_shard_entries{shard=\""+strconv.Itoa(i)+"\"}", sh.entryCount)
		}
	}
	return s, nil
}

// ErrNotOwner rejects requests routed to a node that no longer owns
// the vertex key (e.g. through a stale cached binding after a join, or
// a ring still healing after a crash). It is a topology error, not an
// application outcome: Replicated treats it as failover-worthy, unlike
// other remote errors.
var ErrNotOwner = errors.New("core: node does not own the requested vertex")

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
		if deadlineNS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Unix(0, deadlineNS))
			defer cancel()
		}
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
	// Per-server load attribution for the distribution experiments:
	// registry counters can't tell servers apart when a deployment
	// shares one registry, so each server counts what it answers.
	s.served.Add(1)
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
	case msgSubQuery:
		s.met.opSub.Inc()
		// A relay is a double-read from the new owner of a migrating
		// range: it is answered without the ownership check — this
		// node's copy stays authoritative until commit.
		if !msg.Relay && !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
			return nil, ErrNotOwner
		}
		return s.subQuery(ctx, msg), nil
	case msgSubQueryBatch:
		// Ownership is validated per unit against one reading of the
		// owned arc, not for the whole frame: a ring change may have
		// re-homed a subset of the batch's vertices, and the root falls
		// back to per-vertex sends for exactly those.
		s.met.opSubBatch.Inc()
		return s.subQueryBatch(ctx, msg), nil
	case msgMigrateChunk:
		s.met.opMigChunk.Inc()
		// Migration frames carry the manager's per-chunk deadline the
		// way search frames do: tcpnet handler contexts know nothing of
		// the caller's, so re-derive it before scanning.
		if msg.DeadlineUnixNano > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Unix(0, msg.DeadlineUnixNano))
			defer cancel()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		resp, err := s.migrateChunk(ctx, msg)
		if err == nil {
			s.noteHandOff(msg.NewID, -1)
		}
		return resp, err
	case msgMigrateCommit:
		s.met.opMigCommit.Inc()
		if msg.DeadlineUnixNano > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Unix(0, msg.DeadlineUnixNano))
			defer cancel()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
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
			return s.runQuery(ctx, msg, nil)
		case ClassPrefix:
			if msg.SoftOnly {
				// Soft replicas hold one vertex's table; a prefix
				// multicast needs the whole branch partition, so spread
				// requests bounce back to the owner path.
				return respTQuery{ErrCode: errCodeNoSoftCopy}, nil
			}
			if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
				return nil, ErrNotOwner
			}
			s.met.opPrefix.Inc()
			return s.runQuery(ctx, msg, nil)
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
		// A live soft copy serves before the ownership check: soft
		// replicas of a hot root are, by design, nodes that do NOT own
		// the vertex, and spreading clients address them directly.
		if tbl := s.soft.lookup(msg.Instance, hypercube.Vertex(msg.Vertex)); tbl != nil {
			s.met.opSearch.Inc()
			s.met.softServes.Inc()
			return s.runQuery(ctx, msg, tbl)
		}
		if msg.SoftOnly {
			// A spreading client reached us for a copy we no longer
			// hold; answering from our own tables would be wrong (we
			// are not this vertex's owner), so bounce it back.
			return respTQuery{ErrCode: errCodeNoSoftCopy}, nil
		}
		if !s.owns(msg.Instance, hypercube.Vertex(msg.Vertex)) {
			return nil, ErrNotOwner
		}
		s.met.opSearch.Inc()
		return s.runQuery(ctx, msg, nil)
	case msgSoftPromote:
		s.soft.applyPromote(msg)
		return respAck{}, nil
	case msgSoftInvalidate:
		s.soft.applyInvalidate(msg)
		if msg.SetKey != "" {
			// The owner mutated the promoted vertex: run the same
			// subset-invalidation event over this node's result cache
			// that the owner just ran over its own.
			s.cache.invalidateSubsetsOf(msg.Instance, keyword.ParseKey(msg.SetKey))
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
// applies; an append failure leaves the table untouched.
func (s *Server) insertEntry(instance string, v hypercube.Vertex, setKey, objectID string) error {
	sh := s.shardFor(instance, v)
	var set keyword.Set
	err := s.logEntryMutation(sh, store.Record{
		Op: store.OpInsert, Instance: instance, Vertex: uint64(v),
		SetKey: setKey, ObjectID: objectID,
	}, func() { set = s.applyInsertLocked(sh, instance, v, setKey, objectID) })
	if err != nil {
		return err
	}
	// The cache has its own lock; invalidating outside the shard lock
	// keeps the lock order flat (shard locks never nest with others).
	s.cache.invalidateSubsetsOf(instance, set)
	// Local authority over the vertex supersedes any soft copy of it,
	// and a promoted root whose table changed must demote (its
	// replicas now serve a stale copy).
	s.soft.dropLocal(instance, v)
	s.hot.noteMutation(instance, v, setKey)
	return nil
}

// applyInsert is the table mutation of insertEntry: no logging, no
// cache work. Recovery replays WAL records through it.
func (s *Server) applyInsert(instance string, v hypercube.Vertex, setKey, objectID string) keyword.Set {
	sh := s.shardFor(instance, v)
	sh.lock(s.met.shardLockWait)
	defer sh.mu.Unlock()
	return s.applyInsertLocked(sh, instance, v, setKey, objectID)
}

// applyInsertLocked is applyInsert under a caller-held write lock on
// sh (the shard owning (instance, v)); logEntryMutation uses it to
// keep the WAL append and the apply in one critical section. It
// returns the entry's keyword set for cache invalidation.
func (s *Server) applyInsertLocked(sh *tableShard, instance string, v hypercube.Vertex, setKey, objectID string) keyword.Set {
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
	set := tbl.insert(setKey, objectID)
	// Under the shard lock, so it serializes against noteDelete for the
	// same entry: a re-inserted entry is live again (no-op outside an
	// open migration window).
	s.migrate.noteInsert(instance, v, setKey, objectID)
	return set
}

// deleteEntry removes ⟨K, σ⟩ from the table of vertex v in the given
// instance. A delete of an absent entry is still logged on durable
// servers — replaying it is a no-op, so the record is harmless.
func (s *Server) deleteEntry(instance string, v hypercube.Vertex, setKey, objectID string) (bool, error) {
	sh := s.shardFor(instance, v)
	var found bool
	var set keyword.Set
	err := s.logEntryMutation(sh, store.Record{
		Op: store.OpDelete, Instance: instance, Vertex: uint64(v),
		SetKey: setKey, ObjectID: objectID,
	}, func() { found, set = s.applyDeleteLocked(sh, instance, v, setKey, objectID) })
	if err != nil {
		return false, err
	}
	if found {
		s.cache.invalidateSubsetsOf(instance, set)
		s.soft.dropLocal(instance, v)
		s.hot.noteMutation(instance, v, setKey)
	}
	return found, nil
}

// applyDelete is the table mutation of deleteEntry.
func (s *Server) applyDelete(instance string, v hypercube.Vertex, setKey, objectID string) (bool, keyword.Set) {
	sh := s.shardFor(instance, v)
	sh.lock(s.met.shardLockWait)
	defer sh.mu.Unlock()
	return s.applyDeleteLocked(sh, instance, v, setKey, objectID)
}

// applyDeleteLocked is applyDelete under a caller-held write lock on
// sh (the shard owning (instance, v)); see applyInsertLocked.
func (s *Server) applyDeleteLocked(sh *tableShard, instance string, v hypercube.Vertex, setKey, objectID string) (bool, keyword.Set) {
	// Tombstone before the presence checks: a delete of an entry whose
	// migration chunk has not arrived yet finds nothing locally but
	// must still prevent the chunk from resurrecting it. Shard lock
	// held, so this serializes against insertMigrated's check.
	s.migrate.noteDelete(instance, v, setKey, objectID)
	vertices, ok := sh.tables[instance]
	if !ok {
		return false, keyword.Set{}
	}
	tbl, ok := vertices[v]
	if !ok {
		return false, keyword.Set{}
	}
	set, found := tbl.remove(setKey, objectID)
	if found && tbl.entryCount() == 0 {
		delete(vertices, v)
		if len(vertices) == 0 {
			delete(sh.tables, instance)
		}
	}
	return found, set
}

// subQuery scans the table of msg.Vertex for entries matching the
// query, returning a deterministic window of matches and, when
// msg.GenDim ≥ 0, the SBT child list of the vertex. The scan is
// migration-aware: a vertex inside an open inbound window double-reads
// the old owner (scanVertexRead). A relayed sub-query IS that
// double-read, so it answers strictly from the local tables and is
// never re-relayed.
func (s *Server) subQuery(ctx context.Context, msg msgSubQuery) respSubQuery {
	pred := predFor(msg.Class, msg.QueryKey)
	v, root := hypercube.Vertex(msg.Vertex), hypercube.Vertex(msg.Root)
	var resp respSubQuery
	// Ownership was settled by the caller (a relay skips it by design).
	if msg.Relay {
		resp.Matches, resp.Remaining, _ = s.scanVertex(ownedArc{}, msg.Instance, v, root, pred, msg.Skip, msg.Limit)
	} else {
		resp.Matches, resp.Remaining, _ = s.scanVertexRead(ctx, ownedArc{}, msg.Dim, msg.Instance, v, root, pred, msg.Skip, msg.Limit)
	}
	if cube, err := s.cubeFor(msg.Dim); err == nil {
		// A malformed dim returns the matches without children.
		resp.Children = wireChildren(cube, root, v, msg.GenDim)
	}
	return resp
}

// wireChildren is the SBT child list of v in root's tree as it travels
// in a T_CONT (nil when genDim is negative: a match-only unit). Child
// lists are pure geometry and are computed outside any lock.
func wireChildren(cube hypercube.Cube, root, v hypercube.Vertex, genDim int) []wireEdge {
	if genDim < 0 {
		return nil
	}
	edges := cube.InducedChildEdges(root, v, genDim)
	children := make([]wireEdge, len(edges))
	for i, e := range edges {
		children[i] = wireEdge{Vertex: uint64(e.To), Dim: e.Dim}
	}
	return children
}

// scanChunk is how many units of a msgSubQueryBatch one scan worker
// claims at a time, and so the longest frame the handler's own
// goroutine scans alone. The choice can only look at len(msg.Units),
// not at what the units will cost: 0.25 µs each on the pinned deep
// workload (most vertices of a subcube hold nothing for the query),
// 2.3 µs against a 500-row table (BenchmarkScanTable/selective), 7.5 µs
// when all 48 rows of a dense table match — against several µs of
// start-up, wake-up and stack growth for a fresh goroutine. Four is the
// largest chunk that still gives a 16-unit dense frame (a 64-peer
// fleet's share of an r = 10 mega-wave) four workers; anything smaller
// sends the two-to-four-unit frames of narrow waves to a second
// goroutine for a few µs of work.
const scanChunk = 4

// subQueryBatch answers a coalesced wave of sub-queries in one frame,
// sparsely: the response lists only the units that have something to
// say — matches, matches beyond the window, children, or an error code
// — each tagged with its index in msg.Units, in increasing order. A
// unit it does not list was owned, scanned and empty. Every unit is
// tested against one reading of the owned arc. The frame is cut into
// chunks of scanChunk units that fan out over at most scanWorkers
// workers (one chunk: the handler's own goroutine); each scan takes only
// its vertex's shard read lock, so a mega-wave frame spreads over every
// core instead of serializing on one mutex.
func (s *Server) subQueryBatch(ctx context.Context, msg msgSubQueryBatch) respSubQueryBatch {
	if msg.DeadlineUnixNano > 0 {
		// tcpnet handler contexts carry no request deadline; re-derive
		// it from the frame so an expired search stops burning scan
		// workers here too.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, msg.DeadlineUnixNano))
		defer cancel()
	}
	pred := predFor(msg.Class, msg.QueryKey)
	arc := s.arc()
	// A malformed dim returns the matches without children.
	cube, cubeErr := s.cubeFor(msg.Dim)
	root := hypercube.Vertex(msg.Root)
	n := len(msg.Units)
	var mu sync.Mutex
	var hits []respSubUnit
	fanOut((n+scanChunk-1)/scanChunk, s.scanWorkers, func(c int) {
		for i := c * scanChunk; i < min(n, (c+1)*scanChunk); i++ {
			u, v := msg.Units[i], hypercube.Vertex(msg.Units[i].Vertex)
			hit := respSubUnit{Index: i}
			var owned bool
			if ctx.Err() != nil {
				// A cancelled search abandons its remaining units: the
				// root is failing the whole search, so partially scanned
				// frames cost nothing extra, and the scan workers free up
				// for live queries.
				hit.ErrCode = errCodeCancelled
			} else if hit.Matches, hit.Remaining, owned = s.scanVertexRead(ctx, arc, msg.Dim, msg.Instance, v, root, pred, u.Skip, msg.Limit); !owned {
				hit.ErrCode = errCodeNotOwner
			} else if cubeErr == nil {
				hit.Children = wireChildren(cube, root, v, u.GenDim)
			}
			if hit.ErrCode != errCodeNone || len(hit.Matches) > 0 || hit.Remaining > 0 || len(hit.Children) > 0 {
				mu.Lock()
				hits = append(hits, hit)
				mu.Unlock()
			}
		}
	})
	// Workers finish their chunks in any order; Index restores the
	// frame's, so the response is byte-identical to a sequential scan.
	slices.SortFunc(hits, func(a, b respSubUnit) int { return a.Index - b.Index })
	if n > scanChunk && s.scanWorkers > 1 {
		s.met.scanParUnits.Add(uint64(n))
	}
	return respSubQueryBatch{Hits: hits}
}

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
	sh := s.shardFor(instance, v)
	sh.rlock(s.met.shardLockWait)
	defer sh.mu.RUnlock()
	tbl := sh.tables[instance][v]
	if !arc.owns(tbl, instance, v) {
		return nil, 0, false
	}
	if tbl != nil {
		matches, remaining = tbl.scan(v, root, pred, skip, limit)
	}
	return matches, remaining, true
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

// CacheCapacity returns the root-result cache capacity in object-ID
// units (0 = caching disabled). Under the hot policy this is the
// auto-tuned live capacity, not the configured base.
func (s *Server) CacheCapacity() int { return s.cache.capacityUnits() }

// CacheSnapshot returns a point-in-time view of the result cache:
// policy, capacity, occupancy and per-instance hit ratios.
func (s *Server) CacheSnapshot() CacheSnapshot { return s.cache.snapshot() }

// OpsServed reports how many protocol operations this server has
// answered — the per-peer load counter the distribution experiments
// aggregate into top-node share and Gini coefficients.
func (s *Server) OpsServed() uint64 { return s.served.Load() }

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
func (s *Server) extractRange(newID, ownerID dht.ID) ([]BulkEntry, error) {
	var out []BulkEntry
	err := s.logRangeMutation(store.Record{
		Op: store.OpHandoff, NewID: uint64(newID), OwnerID: uint64(ownerID),
	}, func() { out = s.applyExtractRange(newID, ownerID) })
	return out, err
}

// appendEntries appends tbl — vertex v's table in the given instance —
// to out as BulkEntries, in canonical order. Callers hold v's shard lock.
func appendEntries(out []BulkEntry, instance string, v hypercube.Vertex, tbl *table) []BulkEntry {
	tbl.walk(func(setKey, id string) bool {
		out = append(out, BulkEntry{Instance: instance, Vertex: uint64(v), SetKey: setKey, ObjectID: id})
		return true
	})
	return out
}

// applyExtractRange is the table mutation of extractRange.
func (s *Server) applyExtractRange(newID, ownerID dht.ID) []BulkEntry {
	var out []BulkEntry
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
	// Soft state is volatile by contract: copies and popularity die
	// with the process.
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
