package core

import (
	"errors"

	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Sentinel errors of the index layer.
var (
	// ErrEmptyQuery reports a search with no keywords.
	ErrEmptyQuery = errors.New("core: query keyword set is empty")
	// ErrNoSuchSession reports a cumulative-search continuation whose
	// session has expired or never existed at the root.
	ErrNoSuchSession = errors.New("core: no such search session")
	// ErrExhausted reports a cumulative continuation after the whole
	// subhypercube has been explored.
	ErrExhausted = errors.New("core: search exhausted")
	// ErrBadObject reports an object with an empty ID or keyword set.
	ErrBadObject = errors.New("core: object needs an ID and at least one keyword")
	// ErrUnhandledMessage reports a message type the index server does
	// not recognize, letting transport.Mux try other layers. It is the
	// shared transport sentinel so all layers mux uniformly.
	ErrUnhandledMessage = transport.ErrUnhandled
)

// Object is an indexable item: an application object ID plus the
// keyword set K_σ describing it.
type Object struct {
	ID       string
	Keywords keyword.Set
}

// Validate checks that the object can be indexed.
func (o Object) Validate() error {
	if o.ID == "" || o.Keywords.IsEmpty() {
		return ErrBadObject
	}
	return nil
}

// Match is one search hit: an object together with the exact keyword
// set it is indexed under and the depth (Hamming distance from the
// query root) of the hypercube node that indexed it. By Lemma 3.2 the
// object has at least Depth more keywords than the query.
type Match struct {
	ObjectID string
	SetKey   string // canonical encoding of the object's keyword set
	Vertex   uint64 // hypercube vertex that indexed the object
	Depth    int
}

// Keywords decodes the match's keyword set.
func (m Match) Keywords() keyword.Set { return keyword.ParseKey(m.SetKey) }

// QueryClass selects the match predicate and root resolution of a
// query. All classes flow through the same msgTQuery dispatch path and
// share the traversal, batching, caching, and migration machinery;
// only the predicate and the set of candidate vertices differ.
type QueryClass int

const (
	// ClassSuperset is the paper's superset search: objects whose
	// keyword set contains every query keyword. The zero value: a
	// query that names no class is a superset search.
	ClassSuperset QueryClass = iota
	// ClassPin is the exact-set lookup of Section 3.4: one vertex, one
	// table entry.
	ClassPin
	// ClassPrefix matches objects carrying any keyword with a given
	// string prefix: a constrained multicast over the dimensions the
	// prefix can hash to.
	ClassPrefix
)

func (c QueryClass) valid() bool {
	return c == ClassSuperset || c == ClassPin || c == ClassPrefix
}

// String implements fmt.Stringer; the values label the
// core_search_class_total telemetry series.
func (c QueryClass) String() string {
	switch c {
	case ClassSuperset:
		return "superset"
	case ClassPin:
		return "pin"
	case ClassPrefix:
		return "prefix"
	default:
		return "invalid"
	}
}

// Stats describes the cost of one search operation, in the units the
// paper's Section 3.5 and Section 4 report.
type Stats struct {
	// NodesContacted is the number of distinct hypercube (logical)
	// nodes that examined their index table, including the root.
	NodesContacted int
	// Messages is the number of protocol messages exchanged, counting
	// one query and one reply per contacted node plus the initiator's
	// round trip to the root.
	Messages int
	// Rounds is the number of sequential message round trips the
	// traversal took: one per visited node for sequential orders, one
	// per level wave for ParallelLevels — the Section 3.5 time
	// complexities 2^(r-|One|) versus r-|One|.
	Rounds int
	// PhysFrames is the number of physical RPC frames sent for the
	// search, including the initiator's request to the root. Wave
	// batching makes this far smaller than Messages (which keeps the
	// paper's per-logical-vertex accounting) by coalescing each wave
	// into one frame per distinct physical peer.
	PhysFrames int
	// CacheHit reports that the root answered entirely from its cache.
	CacheHit bool
	// RefineHit reports that the root derived the answer from cached
	// ancestor state (Lemma 3.3) instead of traversing. Disjoint from
	// CacheHit: a refine hit is counted as a cache miss.
	RefineHit bool
	// SoftServed reports that a soft replica (not the root's owner)
	// answered the search.
	SoftServed bool
}

// Add accumulates other into s: the integer cost fields sum, the
// boolean provenance flags OR. Aggregators (decomposed and replicated
// indexes) must use Add rather than summing fields by hand, so a field
// added here can never be silently dropped from their accounting.
func (s *Stats) Add(other Stats) {
	s.NodesContacted += other.NodesContacted
	s.Messages += other.Messages
	s.Rounds += other.Rounds
	s.PhysFrames += other.PhysFrames
	s.CacheHit = s.CacheHit || other.CacheHit
	s.RefineHit = s.RefineHit || other.RefineHit
	s.SoftServed = s.SoftServed || other.SoftServed
}

// TraversalOrder selects how the spanning binomial tree is explored.
type TraversalOrder int

const (
	// TopDown explores the SBT breadth-first from the root: more
	// general objects (fewer extra keywords) are returned first. This
	// is the paper's presented algorithm and the default.
	TopDown TraversalOrder = iota + 1
	// BottomUp explores deepest levels first: more specific objects
	// are returned first (the paper's "slight modification").
	BottomUp
	// ParallelLevels queries all nodes of an SBT level concurrently,
	// level by level (the Section 3.5 time-optimal variant). Result
	// ordering matches TopDown; only latency and message interleaving
	// differ.
	ParallelLevels
)

func (o TraversalOrder) valid() bool {
	return o == TopDown || o == BottomUp || o == ParallelLevels
}

// String implements fmt.Stringer for diagnostics.
func (o TraversalOrder) String() string {
	switch o {
	case TopDown:
		return "top-down"
	case BottomUp:
		return "bottom-up"
	case ParallelLevels:
		return "parallel-levels"
	default:
		return "invalid"
	}
}

// SearchOptions tunes a superset search.
type SearchOptions struct {
	// Order selects the traversal strategy; zero value means TopDown.
	Order TraversalOrder
	// NoCache bypasses the root's result cache for this query.
	NoCache bool
	// Trace asks the root to record per-node visit outcomes in
	// Result.Trace (costs bandwidth proportional to nodes contacted).
	Trace bool
	// ClientID identifies the initiating client to the root's admission
	// controller for per-client fair queuing. It overrides the client's
	// SetClientID identity for this search; empty means anonymous (no
	// fair-queuing bucket).
	ClientID string
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Order == 0 {
		o.Order = TopDown
	}
	return o
}

// TraceStep records one node visit of a traversal: which vertex was
// scanned and how many matches it contributed.
type TraceStep struct {
	Vertex  uint64
	Matches int
	Failed  bool
}

// Result is the outcome of a superset search.
type Result struct {
	// Matches holds up to the requested threshold of hits, in
	// traversal order (general-first for TopDown, specific-first for
	// BottomUp).
	Matches []Match
	// Exhausted reports that the entire subhypercube was explored, so
	// Matches is all of O_K.
	Exhausted bool
	// Stats is the cost of the operation.
	Stats Stats
	// SessionID identifies the root-side cumulative session, when one
	// was requested and more results may remain.
	SessionID uint64
	// Completeness is the fraction of the wave that answered: vertices
	// that scanned their tables over vertices the traversal reached
	// (1.0 = every contacted vertex answered, so by Lemma 3.2 the
	// matches are a faithful prefix of O_K in traversal-rank order).
	// Degraded answers (< 1.0) may silently miss entries indexed at the
	// skipped vertices, though their subtrees were still explored: the
	// root generates every child list itself. Cache hits are always 1.0: only
	// fully answered searches are cached.
	Completeness float64
	// FailedSubtrees counts the vertices skipped as unreachable — each
	// the root of a subtree whose own table entries (and only those)
	// are missing from Matches.
	FailedSubtrees int
	// Trace holds per-node visit records when SearchOptions.Trace was
	// set (empty on cache hits, which contact no subcube nodes).
	Trace []TraceStep
}
