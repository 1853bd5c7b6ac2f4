package keysearch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/dht/chord"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/resilience"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Telemetry re-exports the telemetry registry type so embedders can
// construct one without importing the internal package.
type Telemetry = telemetry.Registry

// NewTelemetry returns a registry with the given search-trace span
// capacity (<= 0 selects the default).
func NewTelemetry(spanCapacity int) *Telemetry { return telemetry.New(spanCapacity) }

// Config tunes a Peer. The zero value is usable; defaults are applied
// by NewPeer.
type Config struct {
	// Dim is the hypercube dimensionality r (default 10, the paper's
	// empirically best value for its corpus). All peers of a
	// deployment must agree on Dim and Instance.
	Dim int
	// Instance names the index instance, salting the mapping of
	// logical hypercube vertices onto DHT nodes (default "main").
	Instance string
	// CacheCapacity is the per-node query-result cache size in
	// object-ID units (default 0 = disabled).
	CacheCapacity int
	// CachePolicy selects the result-cache replacement policy: "hot"
	// (default) — popularity-tracked segmented LRU with frequency-
	// sketch admission — or "fifo", the insertion-order cache of
	// earlier releases. Either holds exactly CacheCapacity units.
	CachePolicy string
	// HotReplicas announces each promoted hot root vertex to this many
	// extra peers, spreading its query load (0 = disabled, the
	// default). A replica answers from its result cache or asks the
	// root's owner, so a positive value needs CacheCapacity > 0. A root
	// is promoted after 64 fresh queries. See DESIGN "Hot-vertex layer".
	HotReplicas int
	// HotSpread makes this peer's clients round-robin one-shot
	// searches for promoted roots across owner + advertised soft
	// replicas. Off by default.
	HotSpread bool
	// IndexReplicas is the number of independent index instances
	// (Section 3.4's "secondary hypercube" replication). Each replica
	// has its own keyword hash and vertex mapping; writes fan out to
	// all replicas and reads fail over. Default 1 (no replication).
	IndexReplicas int
	// MaintenanceInterval is the period of the background Chord
	// stabilization loop started by Create/Join (default 500ms; set
	// negative to disable the background loop — simulations drive
	// maintenance manually).
	MaintenanceInterval time.Duration
	// Telemetry receives metrics and search-trace spans from every
	// layer of the peer (DHT, index server, replication). Nil disables
	// instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// Resilience, when non-nil, routes every outbound RPC of this peer
	// — Chord maintenance and lookups, index waves, client operations —
	// through a resilience middleware applying the policy: retry with
	// full-jitter backoff, per-destination circuit breakers, and hedged
	// sends for read-only RPCs. Nil disables the layer (raw transport
	// semantics, as before). See DefaultResilience for the recommended
	// production policy.
	Resilience *ResiliencePolicy
	// DataDir, when non-empty, makes this peer's index durable: every
	// table mutation is appended to a write-ahead log under the
	// directory before it applies, periodically compacted into a
	// snapshot, and replayed on the next start from the same directory.
	// Empty (default) keeps the index purely in memory.
	DataDir string
	// FsyncPolicy selects how the WAL reaches disk when DataDir is
	// set: "always" (fsync per mutation), "interval" (group commit,
	// default), or "off" (flush only at snapshots and shutdown).
	FsyncPolicy string
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// logged mutations (0 = library default, negative disables
	// compaction). Only meaningful with DataDir set.
	SnapshotEvery int
	// Admission, when non-nil, installs server-side admission control on
	// this peer: client-facing requests (searches, pin queries, inserts,
	// deletes) beyond MaxInflight wait in a bounded deadline-aware queue
	// and are shed with a typed overload error carrying a Retry-After
	// hint once the queue fills, their deadline can't be met, or their
	// client exceeds its fair-queuing rate. Interior wave traffic —
	// including migration chunks — is never gated. Nil (default) admits
	// everything.
	Admission *AdmissionPolicy
	// MigrateChunkEntries caps the entries per chunk an inbound index
	// migration pulls from the old owner (0 = library default, 512).
	MigrateChunkEntries int
	// MigrateThrottle pauses between migration chunks, bounding the
	// transfer's bandwidth and lock footprint (0 = back to back).
	MigrateThrottle time.Duration
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 10
	}
	if c.Instance == "" {
		c.Instance = "main"
	}
	if c.IndexReplicas < 1 {
		c.IndexReplicas = 1
	}
	if c.MaintenanceInterval == 0 {
		c.MaintenanceInterval = 500 * time.Millisecond
	}
	return c
}

// Peer is one participant process: it hosts a Chord DHT node, serves
// its share of the hypercube index, and exposes the client API for
// publishing and searching objects.
type Peer struct {
	cfg      Config
	addr     transport.Addr
	network  transport.Network
	sender   transport.Sender // network, or the resilience middleware over it
	endpoint transport.Node
	chord    *chord.Node
	server   *core.Server
	index    *core.Replicated
	resolver *core.OverlayResolver
}

// NewPeer creates a peer bound at addr on the given transport network.
// The peer is inert until Create (first node of a network) or Join is
// called.
func NewPeer(network transport.Network, addr Addr, cfg Config) (*Peer, error) {
	cfg = cfg.withDefaults()
	hasher, err := keyword.NewHasher(cfg.Dim, 0)
	if err != nil {
		return nil, err
	}
	// Bind first through an indirection so the peer's identity (and
	// its Chord ring ID) derives from the RESOLVED address — a TCP
	// ":0" bind only learns its port here.
	var mux atomic.Value // of transport.Handler
	endpoint, err := network.Bind(addr, func(ctx context.Context, from transport.Addr, body any) (any, error) {
		h, ok := mux.Load().(transport.Handler)
		if !ok {
			return nil, fmt.Errorf("keysearch: peer %q still initializing", addr)
		}
		return h(ctx, from, body)
	})
	if err != nil {
		return nil, fmt.Errorf("bind peer %q: %w", addr, err)
	}
	resolved := endpoint.Addr()

	// Every outbound RPC of this peer goes through one sender; with a
	// resilience policy configured that sender is the policy middleware
	// (retry/breakers/hedging) over the raw network. Binding stays on
	// the raw network either way.
	var sender transport.Sender = network
	if cfg.Resilience != nil {
		mw := resilience.Wrap(network, *cfg.Resilience)
		mw.SetReadOnly(resilience.AnyOf(core.ReadOnlyMessage, chord.ReadOnlyRPC))
		mw.SetTelemetry(cfg.Telemetry)
		sender = mw
	}

	fsync, err := store.ParseFsyncPolicy(cfg.FsyncPolicy)
	if err != nil {
		endpoint.Close()
		return nil, err
	}
	node := chord.New(resolved, sender, chord.Config{Telemetry: cfg.Telemetry})
	resolver := core.NewOverlayResolver(node)
	server, err := core.NewServer(core.ServerConfig{
		Hasher:        hasher,
		Resolver:      resolver,
		Sender:        sender,
		CacheCapacity: cfg.CacheCapacity,
		CachePolicy:   cfg.CachePolicy,
		DataDir:       cfg.DataDir,
		Fsync:         fsync,
		SnapshotEvery: cfg.SnapshotEvery,
		Admission:     cfg.Admission,
		OwnedArc:      node.OwnedArc,
		Telemetry:     cfg.Telemetry,
		HotReplicas:   cfg.HotReplicas,
		Migration: core.MigrationConfig{
			ChunkEntries: cfg.MigrateChunkEntries,
			Throttle:     cfg.MigrateThrottle,
		},
	})
	if err != nil {
		endpoint.Close()
		return nil, err
	}
	// Stabilization-driven ownership changes enqueue migrations: when
	// this node discovers a (new) live immediate successor, it pulls
	// whatever entries of its own range that successor still holds.
	// Duplicate triggers for an in-flight range are no-ops.
	node.OnSuccessorChange(func(succ chord.NodeInfo) {
		server.EnqueueMigration(succ.Addr, uint64(node.ID()), uint64(succ.ID))
	})
	// A graceful departure of this node's predecessor hands it the
	// leaver's arc (pred, leaver]: the keys NOT in (leaver, pred], pulled
	// from the leaver like any other range.
	node.OnDepart(func(leaver, pred chord.NodeInfo) {
		server.EnqueueMigration(leaver.Addr, uint64(leaver.ID), uint64(pred.ID))
	})

	// One client per index replica: replica i has its own keyword hash
	// (seeded i times the golden-ratio constant) and its own
	// vertex→node salt, so no node is responsible for the same keyword
	// set in two replicas. The single index server hosts every
	// instance's tables.
	clients := make([]*core.Client, cfg.IndexReplicas)
	for i := range clients {
		instance := cfg.Instance
		if i > 0 {
			instance = fmt.Sprintf("%s-replica-%d", cfg.Instance, i)
		}
		replicaHasher, err := keyword.NewHasher(cfg.Dim, uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			endpoint.Close()
			return nil, err
		}
		clients[i], err = core.NewInstanceClient(instance, replicaHasher, resolver, sender)
		if err != nil {
			endpoint.Close()
			return nil, err
		}
		clients[i].SetSpread(cfg.HotSpread)
	}
	index, err := core.NewReplicated(clients...)
	if err != nil {
		endpoint.Close()
		return nil, err
	}
	if cfg.Telemetry != nil {
		index.SetTelemetry(cfg.Telemetry)
	}

	mux.Store(transport.Mux(node.Handler, server.Handler))
	return &Peer{
		cfg:      cfg,
		addr:     resolved,
		network:  network,
		sender:   sender,
		endpoint: endpoint,
		chord:    node,
		server:   server,
		index:    index,
		resolver: resolver,
	}, nil
}

// Addr returns the peer's bound transport address.
func (p *Peer) Addr() Addr { return p.addr }

// SetClientID attaches a client identity to every index request this
// peer initiates (all replicas). Servers running with admission
// control key their per-client fair queuing on it; the empty default
// is anonymous and bypasses fair queuing. Call before issuing traffic.
func (p *Peer) SetClientID(id string) {
	for i := 0; ; i++ {
		c := p.index.Replica(i)
		if c == nil {
			return
		}
		c.SetClientID(id)
	}
}

// Create starts a new network with this peer as the first member.
func (p *Peer) Create() {
	p.chord.Create()
	p.server.ResumeMigrations()
	if p.cfg.MaintenanceInterval > 0 {
		p.chord.StartMaintenance(p.cfg.MaintenanceInterval)
	}
}

// Join connects this peer to the network containing the peer at seed
// and schedules a background migration of the index entries it now
// owns from its ring successor: a chunked, cursor-paged, crash-safe
// pull during which the successor keeps serving the range and this
// peer double-reads it, so the entries never go invisible (DESIGN
// §11). Migrations whose durable cursor was recovered from DataDir
// resume where they left off.
func (p *Peer) Join(ctx context.Context, seed Addr) error {
	if err := p.chord.Join(ctx, seed); err != nil {
		return err
	}
	if succ := p.chord.Successor(); succ.Addr != "" && succ.Addr != p.addr {
		p.server.EnqueueMigration(succ.Addr, uint64(p.chord.ID()), uint64(succ.ID))
	}
	p.server.ResumeMigrations()
	if p.cfg.MaintenanceInterval > 0 {
		p.chord.StartMaintenance(p.cfg.MaintenanceInterval)
	}
	return nil
}

// MigrationStats reports the peer's inbound index-migration counters:
// in-flight transfers, chunks/entries/bytes applied, crash resumes,
// and double-reads served during open windows.
func (p *Peer) MigrationStats() core.MigrationStats { return p.server.MigrationStats() }

// WaitMigrationsIdle blocks until every in-flight inbound migration
// has finished (committed or aborted) or ctx expires. Tests and
// simulations use it to quiesce churn before asserting on state.
func (p *Peer) WaitMigrationsIdle(ctx context.Context) error {
	return p.server.WaitMigrationsIdle(ctx)
}

// StabilizeOnce runs one round of DHT maintenance synchronously;
// simulations and tests use it instead of the background loop.
func (p *Peer) StabilizeOnce(ctx context.Context) error {
	return p.chord.MaintainOnce(ctx)
}

// Close stops background maintenance, unbinds the endpoint and flushes
// the durability layer (when DataDir is set). The peer's stored
// references and index entries become unreachable (crash-stop); the
// remaining network heals via Chord stabilization. A durable peer
// restarted from the same DataDir recovers its index. Use Leave for a
// graceful departure that hands its state to its successor instead.
func (p *Peer) Close() error {
	p.chord.Shutdown()
	var err error
	if p.endpoint != nil {
		err = p.endpoint.Close()
	}
	if serr := p.server.Close(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Leave departs the network gracefully. The peer's DHT references move
// to its ring successor with the splice; its index entries move the way
// a joiner's do (DESIGN §11): the successor pulls the peer's key range
// in chunks while this peer keeps serving it, and reads of the range
// double-read here until the pull commits, so no entry is ever
// invisible. Leave returns once that commit has dropped the range here,
// with the number of entries it dropped, and then closes the peer. If
// the successor does not accept the departure, Leave returns the error
// at once; if ctx ends first, or the pull stalls past the migration
// retry budget, Leave returns that error. Either way nothing was
// dropped: the entries stay in this peer's DataDir.
func (p *Peer) Leave(ctx context.Context) (moved int, err error) {
	wait := p.server.Depart(uint64(p.chord.ID()))
	succ, err := p.chord.Leave(ctx)
	if succ.Addr != "" {
		var werr error
		moved, werr = wait(ctx)
		err = errors.Join(err, werr)
	}
	return moved, errors.Join(err, p.Close())
}

// Publish shares a copy of an object held by this peer: it inserts the
// replica reference into the DHT and, if this is the object's first
// copy, creates the keyword-index entry (the paper's Insert
// operation). location is an application-defined locator of the copy
// within this peer (e.g. a path).
func (p *Peer) Publish(ctx context.Context, obj Object, location string) error {
	if err := obj.Validate(); err != nil {
		return err
	}
	first, err := p.chord.Insert(ctx, dht.Reference{
		ObjectID: obj.ID,
		Holder:   p.addr,
		Location: location,
	})
	if err != nil {
		return fmt.Errorf("publish %q: %w", obj.ID, err)
	}
	if !first {
		return nil
	}
	if _, err := p.index.Insert(ctx, obj); err != nil {
		return fmt.Errorf("publish %q index entry: %w", obj.ID, err)
	}
	return nil
}

// Unpublish withdraws this peer's copy of the object: it removes the
// replica reference and, when no copies remain, the keyword-index
// entry (the paper's Delete operation).
func (p *Peer) Unpublish(ctx context.Context, obj Object, location string) error {
	if err := obj.Validate(); err != nil {
		return err
	}
	remaining, err := p.chord.Delete(ctx, dht.Reference{
		ObjectID: obj.ID,
		Holder:   p.addr,
		Location: location,
	})
	if err != nil && !errors.Is(err, dht.ErrNoSuchReference) {
		return fmt.Errorf("unpublish %q: %w", obj.ID, err)
	}
	if remaining > 0 {
		return nil
	}
	if _, _, err := p.index.Delete(ctx, obj); err != nil {
		return fmt.Errorf("unpublish %q index entry: %w", obj.ID, err)
	}
	return nil
}

// PinSearch returns the IDs of objects associated with exactly the
// keyword set k.
func (p *Peer) PinSearch(ctx context.Context, k Set) ([]string, Stats, error) {
	return p.index.PinSearch(ctx, k)
}

// Search returns up to threshold objects whose keyword sets contain k
// (pass All for every match).
func (p *Peer) Search(ctx context.Context, k Set, threshold int, opts SearchOptions) (Result, error) {
	return p.index.SupersetSearch(ctx, k, threshold, opts)
}

// PrefixSearch returns up to threshold objects whose keyword sets
// contain at least one keyword starting with prefix (pass All for
// every match). The query multicasts one SBT branch per hypercube
// dimension; use PrefixSearchMasked with Hasher().PrefixMask to
// constrain the multicast to the dimensions a known vocabulary can
// hash to.
func (p *Peer) PrefixSearch(ctx context.Context, prefix string, threshold int, opts SearchOptions) (Result, error) {
	return p.index.PrefixSearch(ctx, prefix, threshold, opts)
}

// PrefixSearchMasked is PrefixSearch constrained to the SBT branches
// rooted at the dimensions set in mask (zero means all dimensions).
// It always queries the primary replica.
func (p *Peer) PrefixSearchMasked(ctx context.Context, prefix string, mask uint64, threshold int, opts SearchOptions) (Result, error) {
	return p.index.Primary().PrefixSearchMasked(ctx, prefix, mask, threshold, opts)
}

// Hasher returns the primary index instance's keyword hasher — the
// deployment-wide (dimension, seed) pair. Use its PrefixMask with a
// known vocabulary to constrain PrefixSearchMasked.
func (p *Peer) Hasher() keyword.Hasher {
	return p.index.Primary().Hasher()
}

// Refine narrows a previously searched base query to a superset query
// refined ⊇ base without re-traversing: the base root's owner derives
// the refined answer from its cached complete result (Lemma 3.3).
// Falls back to a plain Search transparently when no usable cached
// state exists; Stats.RefineHit reports which path answered. Uses the
// primary replica (refinement state lives on the node that served the
// base search).
func (p *Peer) Refine(ctx context.Context, base, refined Set, threshold int, opts SearchOptions) (Result, error) {
	return p.index.Primary().RefineSearch(ctx, base, refined, threshold, opts)
}

// SearchCursor starts a cumulative search for paging through large
// result sets.
// Cursors are pinned to the primary replica's responsible node, which
// retains the traversal frontier between pages.
func (p *Peer) SearchCursor(k Set, opts SearchOptions) (*Cursor, error) {
	return p.index.Primary().CumulativeSearch(k, opts)
}

// Fetch returns the replica references of an object found via search,
// resolving its ID through the DHT (the paper's Read operation).
func (p *Peer) Fetch(ctx context.Context, objectID string) ([]Reference, error) {
	return p.chord.Read(ctx, objectID)
}

// FamilyConfig configures one attribute family of a decomposed index
// (Section 3.4's decomposition remark): the family gets its own
// smaller hypercube with its own hash.
type FamilyConfig struct {
	// Dim is the family's hypercube dimensionality (default: the
	// peer's Dim). The family's keyword hash is seeded from its name.
	Dim int
}

// DecomposedIndex splits the keyword universe into disjoint attribute
// families, each indexed by its own (typically smaller) hypercube;
// cross-family queries are answered by per-family searches and
// client-side intersection.
type DecomposedIndex = core.Decomposed

// NewDecomposedIndex builds a decomposed index over this peer's
// network. classify must map every normalized keyword to one of the
// family names in families. The family hypercubes share the peer
// fleet's physical nodes; entries are namespaced per family instance.
func (p *Peer) NewDecomposedIndex(classify func(word string) string, families map[string]FamilyConfig) (*DecomposedIndex, error) {
	if len(families) == 0 {
		return nil, fmt.Errorf("keysearch: decomposed index needs at least one family")
	}
	clients := make(map[string]*core.Client, len(families))
	for name, fc := range families {
		dim := fc.Dim
		if dim == 0 {
			dim = p.cfg.Dim
		}
		hasher, err := keyword.NewHasher(dim, uint64(dht.HashString("family:"+name)))
		if err != nil {
			return nil, fmt.Errorf("family %q: %w", name, err)
		}
		instance := p.cfg.Instance + "/family/" + name
		client, err := core.NewInstanceClient(instance, hasher, p.resolver, p.sender)
		if err != nil {
			return nil, fmt.Errorf("family %q: %w", name, err)
		}
		clients[name] = client
	}
	return core.NewDecomposed(classify, clients)
}

// resolveRoot resolves the physical address responsible for keyword
// set k in the given index replica (0 = primary); used by tests and
// diagnostics.
func (p *Peer) resolveRoot(ctx context.Context, replica int, k Set) (Addr, error) {
	c := p.index.Replica(replica)
	if c == nil {
		return "", fmt.Errorf("keysearch: no index replica %d", replica)
	}
	return c.ResolveRoot(ctx, k)
}

// IndexStats reports this peer's index storage load.
func (p *Peer) IndexStats() core.TableStats { return p.server.Stats() }

// CacheStats reports this peer's result-cache hit/miss counters.
func (p *Peer) CacheStats() (hits, misses uint64) { return p.server.CacheStats() }

// CacheSnapshot reports the result cache's policy, capacity, occupancy
// and per-instance hit ratios at this moment.
func (p *Peer) CacheSnapshot() core.CacheSnapshot { return p.server.CacheSnapshot() }

// Telemetry returns the registry this peer reports into (nil when
// instrumentation is disabled).
func (p *Peer) Telemetry() *Telemetry { return p.cfg.Telemetry }
