package core

import (
	"sort"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// Refinement reuse (Lemma 3.3): a refined query K' ⊇ K searches a
// subcube of K's subcube, so the complete result set of an exhausted
// cached search for K already contains every match of K'. Instead of
// re-traversing, the root derives K''s answer from the cached
// ancestor: filter the ancestor's matches down to supersets of K',
// recompute each depth against the refined root, and re-sort into the
// exact order the refined traversal would have produced. The derived
// result is byte-identical to a live traversal — the zipf smoke test
// pins this against cache-off replays.
//
// Invalidation safety comes for free: the refinement store IS the
// result cache, so the same invalidateSubsetsOf events that keep plain
// cached entries honest keep refinement sources honest.

// maxRefineFree bounds the free dimensions of a refined root for which
// derivation builds the visit-rank table (2^free vertices are
// enumerated; beyond this a live traversal is cheaper than the table).
const maxRefineFree = 16

// deriveRefinement computes the complete, traversal-ordered result set
// of `query` rooted at rootV from the complete result set of a cached
// exhausted ancestor query. It returns ok=false when the subcube is
// too large to rank or a source match lies outside the refined
// geometry (which indicates a corrupt source and falls back to a live
// traversal).
func deriveRefinement(cube hypercube.Cube, order TraversalOrder, rootV hypercube.Vertex, query keyword.Set, source []Match) ([]Match, bool) {
	if cube.Dim()-rootV.OnesCount() > maxRefineFree {
		return nil, false
	}
	rank := visitRank(cube, order, rootV)

	// Filter to supersets of the refined query. SetKey parsing is
	// memoized per distinct keyword set — popular corpora repeat sets
	// heavily inside one result list.
	type verdict struct{ keep bool }
	seen := make(map[string]verdict)
	derived := make([]Match, 0, len(source))
	for _, m := range source {
		v, ok := seen[m.SetKey]
		if !ok {
			v = verdict{keep: query.SubsetOf(keyword.ParseKey(m.SetKey))}
			seen[m.SetKey] = v
		}
		if !v.keep {
			continue
		}
		if _, ok := rank[hypercube.Vertex(m.Vertex)]; !ok {
			return nil, false
		}
		m.Depth = hypercube.Hamming(rootV, hypercube.Vertex(m.Vertex))
		derived = append(derived, m)
	}
	// Stable sort by visit rank: matches within one vertex keep the
	// ancestor's relative order, which is already the deterministic
	// (SetKey, ObjectID) scan order every vertex produces.
	sort.SliceStable(derived, func(i, j int) bool {
		return rank[hypercube.Vertex(derived[i].Vertex)] < rank[hypercube.Vertex(derived[j].Vertex)]
	})
	return derived, true
}

// refineFromCache derives q's complete answer from an exhausted cached
// ancestor (any subset query's completed search), when one exists.
// Lemma 3.3 is a statement about superset queries only.
func (s *Server) refineFromCache(q *rootQuery) ([]Match, bool) {
	if q.msg.Class != ClassSuperset {
		return nil, false
	}
	src, ok := s.cache.refineSource(q.msg.Instance, q.pred.set)
	if !ok {
		return nil, false
	}
	return deriveRefinement(q.cube, q.order, q.root, q.pred.set, src)
}

// runRefine answers an explicit client refinement request (msgTQuery
// with RefineFromKey set): the client completed — or knows another
// client completed — a search for an ancestor query on this node and
// asks for the refined query's answer to be derived from the cached
// ancestor state instead of traversed. This node owns the ANCESTOR
// root; msg.Vertex carries the refined root F_h(K'), which it
// typically does not own — derivation is pure geometry, so ownership
// of the refined root is irrelevant. Unusable state (malformed request,
// nothing cached, nothing exhausted, subcube too large) answers
// errCodeNoRefineState and the client falls back to a plain search; no
// counters beyond the refine pair move, so the Fig-9 cache accounting
// never sees these requests.
func (s *Server) runRefine(msg msgTQuery) respTQuery {
	q, err := s.parseQuery(msg)
	if err != nil {
		return respTQuery{ErrCode: errCodeNoRefineState}
	}
	derived, ok := s.refineFromCache(&q)
	if !ok {
		s.met.refineMiss.Inc()
		return respTQuery{ErrCode: errCodeNoRefineState}
	}
	s.met.refineHits.Inc()
	if !msg.NoCache {
		// The derived result is complete: cache it under the refined
		// key so later plain searches (and further refinements) hit.
		s.cache.put(msg.Instance, q.pred, derived, true)
	}
	matches, exhausted, _ := truncateCached(derived, true, msg.Threshold)
	return respTQuery{Matches: matches, Exhausted: exhausted, RefineHit: true}
}

// visitRank maps every vertex of rootV's induced subcube to its
// position in the traversal's visit order: the session's seed, which for
// BottomUp already lists every vertex deepest level first, expanded for
// TopDown/ParallelLevels in SBT breadth-first order (expandFrontier is
// the same code path the mega-wave uses).
func visitRank(cube hypercube.Cube, order TraversalOrder, rootV hypercube.Vertex) map[hypercube.Vertex]int {
	sess := &session{cube: cube, order: order, root: rootV}
	units := sess.seed()
	if order != BottomUp {
		units = expandFrontier(nil, sess, units)
	}
	rank := make(map[hypercube.Vertex]int, len(units))
	for _, u := range units {
		rank[u.vertex] = len(rank)
	}
	return rank
}
