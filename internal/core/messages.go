package core

import (
	"slices"

	"github.com/p2pkeyword/keysearch/internal/store"
)

// Wire messages of the index protocol. Vertices travel as uint64; each
// message's encoding is its MarshalWire/UnmarshalWire pair in
// wirecodec.go.
type (
	// msgInsertEntry places an index entry ⟨K_σ, σ⟩ at the logical
	// vertex responsible for K_σ within one index instance. ClientID
	// (optional, on every client-facing message) identifies the
	// originating client to the receiver's admission controller for
	// fair queuing; empty means anonymous/internal traffic.
	msgInsertEntry struct {
		Entry    store.Entry
		ClientID string
	}

	// msgDeleteEntry removes an index entry.
	msgDeleteEntry struct {
		Entry    store.Entry
		ClientID string
	}
	respDeleteEntry struct{ Found bool }

	// msgTQuery is the initiator's superset-search request to the root
	// node F_h(K) (the paper's T_QUERY(K, t, u, -, -)). If SessionID is
	// nonzero the root continues a stored cumulative session instead of
	// starting a new traversal; if Cumulative is set the root retains
	// the frontier for later continuation.
	msgTQuery struct {
		Instance   string
		Dim        int // hypercube dimensionality of the instance (0 = server default)
		Vertex     uint64
		QueryKey   string
		Threshold  int
		Order      TraversalOrder
		Cumulative bool
		SessionID  uint64
		NoCache    bool
		WantTrace  bool
		ClientID   string
		// DeadlineUnixNano carries the initiator's context deadline to
		// the root (0 = none). TCP handlers run under the listener's
		// context, which knows nothing of the caller's deadline; the
		// root re-derives a deadline-bearing context from this field so
		// admission can shed doomed requests and an expired traversal
		// abandons its remaining waves.
		DeadlineUnixNano int64
		// RefineFromKey marks an explicit refinement request (Lemma
		// 3.3): the receiver is the root of a previously-exhausted
		// search for the ancestor query RefineFromKey rooted at
		// RefineFromVertex, and is asked to derive this (refined)
		// query's answer from its cached ancestor state. Vertex then
		// carries the REFINED root F_h(QueryKey), which the receiver
		// does not own — ownership is checked against RefineFromVertex
		// instead. errCodeNoRefineState reports unusable cached state;
		// the client falls back to a plain search.
		RefineFromKey    string
		RefineFromVertex uint64
		// SoftOnly marks a search a spreading client addressed directly
		// to a soft replica of the root: the receiver answers from its
		// result cache, by refinement reuse, or with the owner's answer
		// to one forward of the miss, and otherwise rejects with
		// errCodeNoSoftCopy — it never traverses, since it holds none
		// of the root's table. Only a SoftOnly request is ever served by
		// a replica; the replica's forward of a miss to the owner is not
		// SoftOnly, so it cannot be forwarded again.
		SoftOnly bool
		// Class selects the query's match predicate and root resolution;
		// the zero value is ClassSuperset and an unknown class is
		// rejected. For ClassPin, QueryKey is the exact set key and
		// Vertex its F_h image; for ClassPrefix, QueryKey is the
		// normalized prefix string and Vertex the lowest dimension of
		// DimMask.
		Class QueryClass
		// DimMask constrains a ClassPrefix multicast to the dimensions a
		// matching keyword can hash to (0 = all r dimensions). Ignored by
		// the other classes.
		DimMask uint64
	}
	respTQuery struct {
		Matches     []Match
		Exhausted   bool
		SessionID   uint64
		SubNodes    int // hypercube nodes contacted (including the root)
		SubMsgs     int // messages exchanged by the root with them
		Rounds      int // sequential message rounds (parallel: waves)
		FailedNodes int // nodes skipped because they were unreachable
		PhysFrames  int // physical RPC frames the root actually sent
		CacheHit    bool
		ErrCode     int // protocol-level outcome (errCode*)
		// Trace records per-node visit outcomes in traversal order
		// when requested (WantTrace); used by the experiment harness
		// to derive nodes-contacted-versus-recall curves.
		Trace []TraceStep
		// RefineHit reports that the answer was derived from cached
		// ancestor state (Lemma 3.3) instead of a traversal. Kept
		// separate from CacheHit so the Fig-9 hit accounting stays
		// exact: a refine hit was counted as a cache miss.
		RefineHit bool
		// SoftAddrs advertises the soft-replica set of a promoted hot
		// root (set only by the owner): clients may spread subsequent
		// identical-root searches across these addresses.
		SoftAddrs []string
	}

	// msgSubQueryBatch is the root's per-node step (the paper's
	// T_QUERY(K, c, u, d, v) sent to a frontier node w), for one or more
	// nodes a peer hosts: a batched wave coalesces every unit destined
	// for the same physical peer into one frame, and a per-vertex send is
	// a one-unit frame. For each unit the receiver examines the index
	// table of its Vertex for entries matching QueryKey under Class and
	// returns up to Limit matches after skipping the unit's Skip. Its
	// reply is the paper's T_CONT less the child list
	// L = {(x, i) : i < d, i ∈ Zero(w)}: L depends only on what the root
	// sent, so the root generates it itself (session.appendChildren).
	// The receiver tests every unit's ownership against one reading of
	// its owned arc and reports per-unit outcomes so the root's failure
	// accounting (Lemma 3.2) is the same however the units were framed.
	// The frame is read-only and therefore hedgeable.
	msgSubQueryBatch struct {
		Instance string
		Root     uint64 // the query's root vertex F_h(K) in this instance
		QueryKey string
		Limit    int
		Units    []wireUnit
		// DeadlineUnixNano propagates the search deadline into the
		// frame (0 = none): a receiver whose transport context carries
		// no deadline (tcpnet) still stops scanning units once the
		// root's search has expired.
		DeadlineUnixNano int64
		// Class selects the match predicate for every unit of the frame
		// (zero value = ClassSuperset; QueryKey's meaning follows
		// msgTQuery.Class).
		Class QueryClass
		// Relay marks a double-read forwarded by the new owner of an
		// in-flight range to the old owner, whose table stays complete
		// until commit: the receiver skips its ownership check, answers
		// from its local tables and never re-relays.
		Relay bool
	}

	// wireUnit is one logical sub-query inside a batch.
	wireUnit struct {
		Vertex uint64
		Skip   int
	}

	// respSubQueryBatch is sparse: Hits lists only the units that have
	// something to say, by strictly increasing Index into the request's
	// Units. A unit it does not list was owned, scanned and empty — on
	// an exhaustive wave that is nearly all of them. A response whose
	// indices are out of range or not increasing is nonsense, and the
	// root retries the whole frame's units one by one.
	respSubQueryBatch struct {
		Hits []respSubUnit
	}

	// respSubUnit is the answer for the unit at Index: its matches and
	// the matches beyond the returned window. ErrCode is nonzero when
	// this particular vertex could not be served (e.g. the peer no
	// longer owns it after a ring change); the root then falls back to a
	// one-unit send with the usual resolve-retry path.
	respSubUnit struct {
		Index     int
		Matches   []Match
		Remaining int
		ErrCode   int
	}

	respAck struct{}

	// msgMigrateChunk asks the old owner for one cursor-paged chunk of
	// the index entries the puller now owns (it joined in front of the
	// old owner, or succeeded it on a graceful leave): entries whose
	// vertex key is NOT in (NewID, OwnerID] on the DHT ring. The read
	// is non-destructive — the old owner keeps serving the range until
	// msgMigrateCommit — and the cursor is client-driven, so the source
	// holds no transfer state and a crashed puller resumes by replaying
	// its last durable cursor. Migration traffic is interior: it is
	// never gated by admission control, and it carries the manager's
	// per-chunk deadline like search frames do.
	msgMigrateChunk struct {
		NewID      uint64
		OwnerID    uint64
		Cursor     wireCursor
		MaxEntries int
		MaxBytes   int
		// DeadlineUnixNano carries the migration manager's per-chunk
		// deadline (0 = none); TCP handler contexts don't know the
		// caller's deadline, so the source re-derives it from here.
		DeadlineUnixNano int64
	}
	// respMigrateChunk is one page of entries in the source's canonical
	// order (store.Entry.Compare). Its last entry is the resume point
	// the next pull passes back; a page with no entries is the last.
	respMigrateChunk struct {
		Entries []store.Entry
		Done    bool // no entries remain past the page's last
	}

	// wireCursor is a resumable position in the source's canonical
	// entry order: the last entry the puller applied. Started=false
	// means "from the beginning".
	wireCursor struct {
		Started bool
		Entry   store.Entry
	}

	// msgMigrateCommit ends the double-read window: the new owner has
	// durably applied every chunk, so the old owner now extracts and
	// drops the migrated range (logging OpHandoff) and stops serving
	// it. Idempotent — recommitting an already-dropped range is a no-op.
	msgMigrateCommit struct {
		NewID            uint64
		OwnerID          uint64
		DeadlineUnixNano int64
	}
	respMigrateCommit struct {
		Dropped int
	}

	// msgSoftPromote announces a popularity-promoted root to a
	// soft-replica peer: "you serve this root's spread searches". It
	// carries no table; the replica answers from its result cache or
	// asks the owner. Gen orders announcements and invalidations of one
	// root. Replica membership is volatile by design — never
	// WAL-logged, dropped on restart — and the owner re-promotes from
	// live popularity if it matters.
	msgSoftPromote struct {
		Instance string
		Vertex   uint64
		Gen      uint64
	}

	// msgSoftInvalidate withdraws a soft replica's membership for one
	// root, at generations up to Gen. The owner sends it synchronously
	// (best effort) on any mutation of a promoted vertex, carrying the
	// mutated entry's SetKey so the replica also runs the same
	// invalidateSubsetsOf event over its own result cache;
	// demotion-by-cooling sends it with an empty SetKey (the replica
	// stops serving but keeps its cached results).
	msgSoftInvalidate struct {
		Instance string
		Vertex   uint64
		Gen      uint64
		SetKey   string
	}
)

// Repeatable implements transport.RepeatableBody: a frame of sub-queries
// and a migration page are reads, so a second delivery is harmless and
// they may be resent or hedged.
func (msgSubQueryBatch) Repeatable() bool { return true }

func (msgMigrateChunk) Repeatable() bool { return true }

// Repeatable implements transport.RepeatableBody: a one-shot T_QUERY is
// a read (its only side effect is populating the result cache);
// cumulative starts and continuations are not, because each delivery
// creates or advances a session.
func (m msgTQuery) Repeatable() bool { return !m.Cumulative && m.SessionID == 0 }

// CloneBody implements transport.BodyCloner: a root's frame units are a
// window of its pooled wave scratch (DESIGN §7), reused once Send
// returns, so a hedged send's legs race over a copy.
func (m msgSubQueryBatch) CloneBody() any {
	m.Units = slices.Clone(m.Units)
	return m
}
