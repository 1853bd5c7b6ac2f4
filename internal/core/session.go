package core

import (
	"container/list"
	"math/bits"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
)

// session is one suspended run of the traversal engine: the frontier
// of one spanning binomial tree plus what the engine needs to keep
// draining it. A superset search is one session over SBT(F_h(K)), a
// prefix multicast one session per branch, a pin query one session
// holding a single childless unit. A cumulative search is a session
// parked in the sessionStore between pages (Section 3.3: "the root node
// keeps the queue U for subsequent queries"), so consecutive pages are
// disjoint.
type session struct {
	instance string
	cube     hypercube.Cube
	pred     queryPred
	order    TraversalOrder
	// root is the traversal root: F_h(K) for superset and pin, the
	// branch's e_d for a prefix multicast. Depths and SBT child lists
	// are relative to it.
	root hypercube.Vertex
	// self is the vertex whose owner this server is — the vertex the
	// initiator addressed. It equals root for superset, pin and the
	// coordinator's own prefix branch; every other prefix branch root
	// is a remote vertex visited like any other frontier node. Wave
	// dispatch resolves self (not root) to find this server's address.
	self hypercube.Vertex
	// work is the pending frontier: for TopDown/ParallelLevels the
	// paper's queue U (plus possible partially-consumed nodes at the
	// head); for BottomUp the remaining vertices in descending-depth
	// order.
	work []workUnit
	// soft, when non-nil, is the soft-replica copy of the root
	// vertex's table this (non-owner) server is serving the search
	// from; root-vertex scans read it instead of the local tables.
	soft *table
	// exclude is the prefix-multicast branch-partition mask: child
	// edges landing on a vertex that intersects it belong to an
	// earlier branch and are pruned. Zero for superset searches.
	exclude hypercube.Vertex
}

// hostsRoot reports that u is the traversal root and this server holds
// its table, so the unit is scanned in place with no exchange.
func (sess *session) hostsRoot(u workUnit) bool {
	return u.vertex == sess.root && sess.root == sess.self
}

// remaining is the exact number of vertices the traversal of frontier
// has yet to visit, by arithmetic: a unit's subtree spans the dimensions
// below genDim that neither the root, the unit nor the exclude mask
// occupies (appendChildren's test, applied transitively), and a
// match-only unit is itself alone. Callers bound the subcube's free
// dimensions (maxBottomUpFree, maxRefineFree), so the sum fits an int.
func (sess *session) remaining(frontier []workUnit) int {
	n := 0
	for _, u := range frontier {
		free := uint64(0)
		if u.genDim > 0 {
			free = ^uint64(sess.root|u.vertex|sess.exclude) & (1<<uint(u.genDim) - 1)
		}
		n += 1 << bits.OnesCount64(free)
	}
	return n
}

// workUnit is one pending node visit: scan 'vertex', skipping the
// first 'skip' matches; generate SBT children only when genDim ≥ 0
// (a node's children are generated exactly once, on first visit).
type workUnit struct {
	vertex hypercube.Vertex
	genDim int
	skip   int
}

// sessionStore retains at most max sessions, evicting the oldest.
// Insertion order lives in an intrusive list with an id→element index,
// so save, take and eviction are all O(1) — cumulative-search paging
// must not degrade to a linear scan under thousands of live sessions.
type sessionStore struct {
	mu     sync.Mutex
	max    int
	nextID uint64
	order  *list.List               // of sessionElem, oldest at Front
	index  map[uint64]*list.Element // session ID → its order element
}

// sessionElem is the list payload: the ID travels with the session so
// eviction at Front can update the index without a reverse lookup.
type sessionElem struct {
	id   uint64
	sess *session
}

func newSessionStore(max int) *sessionStore {
	return &sessionStore{
		max:   max,
		order: list.New(),
		index: make(map[uint64]*list.Element),
	}
}

// save stores sess and returns its new ID.
func (st *sessionStore) save(sess *session) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	id := st.nextID
	st.index[id] = st.order.PushBack(sessionElem{id: id, sess: sess})
	for len(st.index) > st.max {
		oldest := st.order.Front()
		st.order.Remove(oldest)
		delete(st.index, oldest.Value.(sessionElem).id)
	}
	return id
}

// take removes and returns the session with the given ID.
func (st *sessionStore) take(id uint64) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.index[id]
	if !ok {
		return nil
	}
	delete(st.index, id)
	st.order.Remove(el)
	return el.Value.(sessionElem).sess
}

// reset drops every live session (the sim's crash model). nextID keeps
// counting: stale session IDs from before the crash must miss, not
// alias a post-recovery session.
func (st *sessionStore) reset() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.order.Init()
	st.index = make(map[uint64]*list.Element)
}

// len returns the number of live sessions (test helper).
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.index)
}
