package core

import (
	"container/list"
	"math/bits"
	"sort"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
)

// session is one suspended run of the traversal engine: a query's one
// frontier plus what the engine needs to keep draining it. A superset
// search is one spanning binomial tree, SBT(F_h(K)); a prefix multicast
// one SBT branch per masked dimension, drained from the same frontier;
// a pin query a single childless unit. A cumulative search is a session
// parked in the sessionStore between pages (Section 3.3: "the root node
// keeps the queue U for subsequent queries"), so consecutive pages are
// disjoint.
type session struct {
	instance string
	cube     hypercube.Cube
	// pred carries the query's class and, for a prefix multicast, its
	// dimension mask M, which partitions the frontier into branches.
	pred  queryPred
	order TraversalOrder
	// root is the vertex the initiator addressed, whose owner this
	// server is: F_h(K) for superset and pin, the lowest masked
	// dimension's e_d for a prefix multicast. Wave dispatch resolves it
	// to find this server's address; the other branch roots of a prefix
	// multicast are remote vertices visited like any other.
	root hypercube.Vertex
	// work is the pending frontier, branch-major (traverse): for
	// TopDown/ParallelLevels the paper's queue U (plus possible
	// partially-consumed nodes at the head); for BottomUp the remaining
	// vertices in descending-depth order, branch by branch.
	work []workUnit
}

// branch is the root of the SBT branch holding v. Section 3.4's prefix
// multicast partitions its candidates {v : v ∧ M ≠ 0} by their lowest
// masked dimension, so for a prefix v's branch is e_{lowbit(v ∧ M)};
// every other query (M = 0) has one branch, rooted at root.
func (sess *session) branch(v hypercube.Vertex) hypercube.Vertex {
	if m := v & hypercube.Vertex(sess.pred.mask); m != 0 {
		return m & -m
	}
	return sess.root
}

// closed is the set of dimensions no SBT descendant of v adds: v's own
// and those its branch excludes, the masked dimensions below its branch
// root, which earlier branches cover.
func (sess *session) closed(v hypercube.Vertex) hypercube.Vertex {
	return v | hypercube.Vertex(sess.pred.mask)&(sess.branch(v)-1)
}

// run is the length of frontier's leading run of units of branch b, in
// a frontier whose runs are in ascending branch order.
func (sess *session) run(frontier []workUnit, b hypercube.Vertex) int {
	return sort.Search(len(frontier), func(i int) bool { return sess.branch(frontier[i].vertex) > b })
}

// seed is the frontier a fresh traversal starts from: every branch's
// root, ascending, for the top-down orders; for BottomUp every candidate
// vertex, branch by branch, each branch's induced subcube deepest level
// first (less the vertices an earlier branch holds).
func (sess *session) seed() []workUnit {
	m := hypercube.Vertex(sess.pred.mask)
	work := make([]workUnit, 0, max(1, m.OnesCount()))
	for {
		b := sess.branch(m) // e_{lowbit(m)} of the masked dimensions left; root for M = 0
		if sess.order != BottomUp {
			work = append(work, workUnit{vertex: b, genDim: sess.cube.Dim()})
		} else {
			levels := sess.cube.InducedLevels(b)
			for d := len(levels) - 1; d >= 0; d-- {
				for _, v := range levels[d] {
					if sess.branch(v) == b {
						work = append(work, workUnit{vertex: v, genDim: -1})
					}
				}
			}
		}
		if m &= m - 1; m == 0 {
			return work
		}
	}
}

// remaining is the exact number of vertices the traversal of frontier
// has yet to visit, by arithmetic: a unit's subtree spans the dimensions
// below genDim that are not closed to it (appendChildren's test, applied
// transitively), and a match-only unit is itself alone. Callers bound
// the subcube's free dimensions (maxBottomUpFree, maxRefineFree), so the
// sum fits an int.
func (sess *session) remaining(frontier []workUnit) int {
	n := 0
	for _, u := range frontier {
		free := uint64(0)
		if u.genDim > 0 {
			free = ^uint64(sess.closed(u.vertex)) & (1<<uint(u.genDim) - 1)
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
