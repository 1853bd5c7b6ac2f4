// Package keysearch is a keyword/attribute search layer for DHT-based
// peer-to-peer networks, implementing the hypercube index scheme of
// Joung, Fang and Yang, "Keyword Search in DHT-based Peer-to-Peer
// Networks" (ICDCS 2005).
//
// Each shared object is described by a keyword set and indexed at
// exactly one logical node of an r-dimensional hypercube, determined
// by hashing its keywords to hypercube dimensions. The hypercube is
// mapped onto a Chord DHT built from scratch in this module. On top of
// that structure the layer offers:
//
//   - Pin search: find objects with exactly a given keyword set in a
//     single lookup.
//   - Superset search: find objects whose keyword sets contain the
//     query, by walking the spanning binomial tree of the induced
//     subhypercube — general-first, specific-first, or parallel.
//   - Cumulative search: page through large result sets with the
//     traversal frontier kept at the responsible node.
//   - Built-in load balance under Zipf keyword popularity, per-node
//     result caching, and ranking by "extra keyword" depth.
//
// A Peer bundles everything one process needs: the transport endpoint,
// the Chord node, the index server, and the client API. See
// NewLocalCluster for an in-process test cluster and the examples/
// directory for runnable programs.
package keysearch

import (
	"time"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/dht/chord"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/resilience"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
	"github.com/p2pkeyword/keysearch/internal/transport/tcpnet"
)

// Re-exported core types: these form the public vocabulary of the
// library.
type (
	// Object is an indexable item: an application object ID plus the
	// keyword set describing it.
	Object = core.Object
	// Match is one search hit.
	Match = core.Match
	// Result is the outcome of a superset search.
	Result = core.Result
	// Stats reports operation costs in nodes contacted and messages.
	Stats = core.Stats
	// SearchOptions tunes a superset search.
	SearchOptions = core.SearchOptions
	// TraversalOrder selects the subhypercube traversal strategy.
	TraversalOrder = core.TraversalOrder
	// Cursor pages through a cumulative search.
	Cursor = core.Cursor
	// Set is an immutable keyword set.
	Set = keyword.Set
	// Reference points to one replica of an object in the DHT.
	Reference = dht.Reference
	// Addr is a transport address (a logical name in-memory, host:port
	// over TCP).
	Addr = transport.Addr
	// Category groups matches by their extra keywords for refinement.
	Category = core.Category
	// ResiliencePolicy configures the retry/backoff, circuit-breaker
	// and hedging behaviour applied to a peer's RPCs when set on
	// Config.Resilience.
	ResiliencePolicy = resilience.Policy
	// BreakerPolicy configures the per-destination circuit breakers
	// within a ResiliencePolicy.
	BreakerPolicy = resilience.BreakerPolicy
	// AdmissionPolicy configures server-side admission control and load
	// shedding when set on Config.Admission: bounded inflight
	// client-facing requests, a bounded deadline-aware wait queue, and
	// per-client fair queuing via token buckets.
	AdmissionPolicy = admission.Policy
	// OverloadError is the typed error a shedding server returns; it
	// carries the shed reason and a Retry-After hint. Use IsOverload /
	// OverloadRetryAfter to detect it across transports.
	OverloadError = admission.Overload
	// CacheSnapshot is a point-in-time view of a peer's result cache
	// (policy, occupancy, per-instance hit ratios); see
	// Peer.CacheSnapshot.
	CacheSnapshot = core.CacheSnapshot
	// InstanceCacheStats is one index instance's slice of a
	// CacheSnapshot.
	InstanceCacheStats = core.InstanceCacheStats
	// DecomposedResult is the intersection answer of a decomposed-index
	// search, with aggregate cost and weakest-family quality signals.
	DecomposedResult = core.DecomposedResult
)

// DefaultResilience returns the recommended production resilience
// policy: three attempts with 10ms–2s full-jitter backoff, breakers
// opening after five consecutive failures for one second, hedging
// disabled (enable it by setting HedgeDelay).
func DefaultResilience() ResiliencePolicy { return resilience.DefaultPolicy() }

// Traversal orders.
const (
	// TopDown returns more general objects first (the default).
	TopDown = core.TopDown
	// BottomUp returns more specific objects first.
	BottomUp = core.BottomUp
	// ParallelLevels queries each tree level concurrently.
	ParallelLevels = core.ParallelLevels
)

// All is a search threshold meaning "every matching object".
const All = core.All

// Result-cache policies (Config.CachePolicy).
const (
	// CachePolicyHot is the popularity-tracked cache with frequency
	// admission (the default).
	CachePolicyHot = core.CachePolicyHot
	// CachePolicyFIFO is the legacy fixed-size FIFO cache.
	CachePolicyFIFO = core.CachePolicyFIFO
)

// Re-exported sentinel errors.
var (
	ErrEmptyQuery    = core.ErrEmptyQuery
	ErrExhausted     = core.ErrExhausted
	ErrNoSuchSession = core.ErrNoSuchSession
	ErrBadObject     = core.ErrBadObject
	ErrNoSuchObject  = dht.ErrNoSuchObject
	ErrUnreachable   = transport.ErrUnreachable
	// ErrOverload matches (via errors.Is) any error caused by a server
	// shedding load under admission control.
	ErrOverload = admission.ErrOverload
)

// IsOverload reports whether err was caused by a server shedding the
// request under admission control, including errors that crossed a
// transport boundary (where typed errors flatten to strings).
func IsOverload(err error) bool { return admission.IsOverload(err) }

// OverloadRetryAfter extracts the server's Retry-After hint from an
// overload error (ok=false when err is not an overload). Clients
// honoring the hint converge to the server's sustainable rate instead
// of retry-storming it.
func OverloadRetryAfter(err error) (retryAfter time.Duration, ok bool) {
	o, ok := admission.FromError(err)
	if !ok {
		return 0, false
	}
	return o.RetryAfter, true
}

// NewKeywordSet normalizes, deduplicates and sorts raw keywords into a
// Set. Objects and queries must both use it (or equivalent
// normalization) so that the deterministic mapping agrees.
func NewKeywordSet(words ...string) Set { return keyword.NewSet(words...) }

// Ranking helpers re-exported from the index layer.
var (
	// GroupByDepth buckets matches by extra-keyword depth.
	GroupByDepth = core.GroupByDepth
	// Categorize groups matches by their exact extra keyword set.
	Categorize = core.Categorize
	// SampleCategories returns a few matches per refinement category.
	SampleCategories = core.Sample
	// SortGeneralFirst orders matches fewest-extra-keywords first.
	SortGeneralFirst = core.SortGeneralFirst
	// SortSpecificFirst orders matches most-extra-keywords first.
	SortSpecificFirst = core.SortSpecificFirst
)

// RegisterTypes binds every wire message of the library to its type ID
// in the wire codec registry. Call it once at startup in each process
// that uses the TCP transport; repeated calls are harmless.
func RegisterTypes() {
	chord.RegisterTypes()
	core.RegisterTypes()
}

// NewInMemoryTransport returns a process-local transport suitable for
// simulations, tests and single-process clusters. The seed drives
// probabilistic fault injection only.
func NewInMemoryTransport(seed int64) *inmem.Network { return inmem.New(seed) }

// NewTCPTransport returns a TCP-backed transport for multi-process
// deployments; each listener sizes its handler pool from GOMAXPROCS.
// Call RegisterTypes before using it.
func NewTCPTransport() *tcpnet.Network { return tcpnet.New() }

// TCPConfig has one field left, Wire, which selects nothing — there is
// one wire protocol — and accepts only "" or WireBinary. It stays
// because benchmarks/ksperf compiles against it (see tcpnet.Config).
type TCPConfig = tcpnet.Config

// WireBinary is the only value TCPConfig.Wire accepts besides "".
const WireBinary = tcpnet.WireBinary

// NewTCPTransportConfig is NewTCPTransport with cfg checked first.
// Call RegisterTypes before using it.
func NewTCPTransportConfig(cfg TCPConfig) (*tcpnet.Network, error) {
	return tcpnet.NewWithConfig(cfg)
}
