package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/resilience"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// Deployment is a live in-memory index deployment, by default with one
// physical node per logical hypercube vertex — the configuration of
// the paper's query experiments (Figures 8 and 9). DeployConfig.Peers
// folds the 2^r logical vertices onto fewer physical nodes
// round-robin, the realistic regime wave batching targets.
type Deployment struct {
	R       int
	Peers   int // physical nodes (default 2^r: one per vertex)
	Net     *inmem.Network
	Hasher  keyword.Hasher
	Servers []*core.Server   // indexed by peer
	Addrs   []transport.Addr // indexed by peer
	Client  *core.Client
	// Telemetry is the registry shared by every node of the deployment
	// (nil for uninstrumented deployments). Because all 2^r servers
	// register their gauges on the one registry, its snapshot reports
	// deployment-wide totals.
	Telemetry *telemetry.Registry
	// Index is the replicated view over all replica clients
	// (Client == Index.Primary()). Nil unless the deployment was built
	// by NewResilientDeployment with replicas > 1.
	Index *core.Replicated
	// Resilience is the policy middleware every client and server sends
	// through. Nil unless the deployment was built with a policy.
	Resilience *resilience.Middleware
	// Durable reports whether the fleet persists index state
	// (DeployConfig.DataDir was set). The chaos harness switches its
	// crash model on it: a durable crash wipes the node's memory and a
	// recover replays the node's data directory, instead of the
	// memory-survives model used for in-memory fleets.
	Durable bool
}

// NewDeployment builds a 2^r-node deployment. cacheCapacity is the
// per-node result cache size in object-ID units (0 disables caching).
func NewDeployment(r, cacheCapacity int) (*Deployment, error) {
	return NewInstrumentedDeployment(r, cacheCapacity, nil)
}

// NewInstrumentedDeployment is NewDeployment with every node (and the
// in-memory network) wired to reg. A nil reg is equivalent to
// NewDeployment.
func NewInstrumentedDeployment(r, cacheCapacity int, reg *telemetry.Registry) (*Deployment, error) {
	return NewResilientDeployment(r, cacheCapacity, 1, reg, nil)
}

// NewResilientDeployment is the chaos-harness deployment: the same
// one-node-per-vertex fleet, optionally with replicas independent
// index instances (each with its own hash seed, mirroring the Peer
// replica wiring, so a crashed physical node silences different
// keyword sets in each instance) and with every client and root→wave
// send routed through a resilience.Middleware applying pol. replicas
// < 2 disables replication; a nil pol disables the middleware, making
// the deployment identical to NewInstrumentedDeployment.
func NewResilientDeployment(r, cacheCapacity, replicas int, reg *telemetry.Registry, pol *resilience.Policy) (*Deployment, error) {
	return NewCustomDeployment(DeployConfig{
		R: r, CacheCapacity: cacheCapacity, Replicas: replicas,
		Telemetry: reg, Policy: pol,
	})
}

// DeployConfig parameterizes NewCustomDeployment.
type DeployConfig struct {
	// R is the hypercube dimensionality (required, 1–16).
	R int
	// Peers is the number of physical nodes the 2^r logical vertices
	// fold onto, assigned round-robin (vertex v lives on peer v mod
	// Peers). 0 means one peer per vertex.
	Peers int
	// CacheCapacity is the per-node result-cache size in object-ID
	// units.
	CacheCapacity int
	// CachePolicy selects the result-cache policy ("" = hot, or
	// "fifo"). See core.ServerConfig.CachePolicy.
	CachePolicy string
	// HotReplicas announces promoted hot roots to this many
	// extra peers (0 = disabled). See core.ServerConfig.HotReplicas.
	HotReplicas int
	// HotSpread makes the deployment's clients round-robin one-shot
	// searches for promoted roots across owner + soft replicas.
	HotSpread bool
	// Replicas is the number of independent index instances (< 2
	// disables replication).
	Replicas int
	// Telemetry instruments every node and the network when non-nil.
	Telemetry *telemetry.Registry
	// Policy routes every client and root→wave send through a
	// resilience middleware when non-nil.
	Policy *resilience.Policy
	// Batch selects wave batching for ParallelLevels searches on every
	// server of the fleet (BatchAuto = on).
	Batch core.BatchMode
	// DataDir, when non-empty, makes every peer durable: peer p logs
	// its index mutations under DataDir/peer-p and recovers them on
	// construction. See core.ServerConfig.DataDir.
	DataDir string
	// Fsync is the WAL flush policy for durable fleets.
	Fsync store.FsyncPolicy
	// SnapshotEvery is the per-peer WAL compaction threshold
	// (0 = library default, negative disables).
	SnapshotEvery int
	// Admission, when non-nil, installs a server-side admission
	// controller with this policy on every peer of the fleet: bounded
	// inflight client-facing requests, deadline-aware queue shedding,
	// and per-client fair queuing. Nil (default) admits everything.
	Admission *admission.Policy
}

// NewCustomDeployment builds an in-memory deployment from cfg.
func NewCustomDeployment(cfg DeployConfig) (*Deployment, error) {
	r := cfg.R
	if r < 1 || r > 16 {
		return nil, fmt.Errorf("sim: deployment r=%d outside the tractable range [1, 16]", r)
	}
	size := 1 << uint(r)
	peers := cfg.Peers
	if peers <= 0 || peers > size {
		peers = size
	}
	net := inmem.New(1)
	net.SetTelemetry(cfg.Telemetry)

	// Everything above the raw network — servers driving waves, clients
	// issuing queries — sends through the middleware when a policy is
	// given. Binding stays on the raw network either way.
	var sender transport.Sender = net
	var mw *resilience.Middleware
	if cfg.Policy != nil {
		mw = resilience.Wrap(net, *cfg.Policy)
		mw.SetTelemetry(cfg.Telemetry)
		sender = mw
	}

	hasher := keyword.MustNewHasher(r, HashSeed)
	addrs := make([]transport.Addr, peers)
	for p := range addrs {
		addrs[p] = transport.Addr("v" + strconv.Itoa(p))
	}
	resolver := core.FuncResolver(func(v hypercube.Vertex) transport.Addr {
		return addrs[int(uint64(v)%uint64(peers))]
	})
	servers := make([]*core.Server, peers)
	for p := range servers {
		dataDir := ""
		if cfg.DataDir != "" {
			dataDir = filepath.Join(cfg.DataDir, "peer-"+strconv.Itoa(p))
		}
		srv, err := core.NewServer(core.ServerConfig{
			Hasher:        hasher,
			Resolver:      resolver,
			Sender:        sender,
			CacheCapacity: cfg.CacheCapacity,
			CachePolicy:   cfg.CachePolicy,
			HotReplicas:   cfg.HotReplicas,
			BatchWaves:    cfg.Batch,
			DataDir:       dataDir,
			Fsync:         cfg.Fsync,
			SnapshotEvery: cfg.SnapshotEvery,
			Admission:     cfg.Admission,
			Telemetry:     cfg.Telemetry,
		})
		if err != nil {
			for _, s := range servers[:p] {
				s.Close()
			}
			net.Close()
			return nil, err
		}
		servers[p] = srv
		if _, err := net.Bind(addrs[p], srv.Handler); err != nil {
			for _, s := range servers[:p+1] {
				s.Close()
			}
			net.Close()
			return nil, err
		}
	}

	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	// One client per index instance; the shared server fleet hosts every
	// instance's tables (same as a Peer deployment).
	clients, err := core.ReplicaClients(replicas, core.DefaultInstance, r, HashSeed, resolver, sender, cfg.HotSpread)
	if err != nil {
		net.Close()
		return nil, err
	}
	d := &Deployment{
		R: r, Peers: peers, Net: net, Hasher: hasher, Servers: servers,
		Addrs: addrs, Client: clients[0], Telemetry: cfg.Telemetry, Resilience: mw,
		Durable: cfg.DataDir != "",
	}
	if replicas > 1 {
		index, err := core.NewReplicated(clients...)
		if err != nil {
			net.Close()
			return nil, err
		}
		index.SetTelemetry(cfg.Telemetry)
		d.Index = index
	}
	return d, nil
}

// Close releases the deployment's network and flushes every peer's
// durability layer (a no-op for in-memory fleets).
func (d *Deployment) Close() {
	for _, srv := range d.Servers {
		srv.Close()
	}
	d.Net.Close()
}

// InsertCorpus indexes every record of the corpus — into every replica
// when the deployment is replicated.
func (d *Deployment) InsertCorpus(c *corpus.Corpus) error {
	ctx := context.Background()
	insert := func(ctx context.Context, obj core.Object) error {
		var err error
		if d.Index != nil {
			_, err = d.Index.Insert(ctx, obj)
		} else {
			_, err = d.Client.Insert(ctx, obj)
		}
		return err
	}
	for _, rec := range c.Records() {
		if err := insert(ctx, core.Object{ID: rec.ID, Keywords: rec.Keywords}); err != nil {
			return fmt.Errorf("index record %s: %w", rec.ID, err)
		}
	}
	return nil
}

// Nodes returns the number of logical hypercube nodes, 2^r (the
// physical fleet size is Peers).
func (d *Deployment) Nodes() int { return 1 << uint(d.R) }
