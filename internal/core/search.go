package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// response error codes carried in respTQuery (the transport reports
// genuine failures; these are protocol-level outcomes).
const (
	errCodeNone = iota
	errCodeNoSession
	// errCodeNotOwner flags one unit of a msgSubQueryBatch whose vertex
	// the receiving peer does not own; the root retries that unit in a
	// frame of its own, which the routing rule heals like any refusal.
	errCodeNotOwner
	// errCodeCancelled flags a batch unit the receiver skipped because
	// the search's deadline had already expired when its turn came. The
	// root must NOT retry such units — the whole search is being
	// abandoned.
	errCodeCancelled
	// errCodeNoRefineState rejects an explicit refinement request
	// (msgTQuery.RefineFromKey) whose receiver holds no usable cached
	// ancestor state; the client falls back to a plain search.
	errCodeNoRefineState
	// errCodeNoSoftCopy rejects a spread search (msgTQuery.SoftOnly)
	// its receiver cannot answer: it is not (or no longer) a soft
	// replica of the root, the request is not one a replica serves, or
	// its cache missed and the owner did not answer the forward. The
	// client forgets the replica set and retries via the owner.
	errCodeNoSoftCopy
)

// maxBottomUpFree bounds the free dimensions of a bottom-up traversal:
// the root enumerates the whole subhypercube up front, so 2^free
// vertices are materialized.
const maxBottomUpFree = 22

// spanStepSampleEvery is the stride at which instrumented searches
// attach the full per-vertex step list to their telemetry span. Every
// search still records a span with exact aggregate counts; collecting
// the wave tree itself allocates a few KB per query, which at high
// query rates is churn the bounded span ring mostly evicts unread.
// The first search after startup is always sampled.
const spanStepSampleEvery = 8

// rootQuery is a validated msgTQuery: the wire request plus everything
// the root derives from it once, whatever the query class.
type rootQuery struct {
	msg   msgTQuery
	cube  hypercube.Cube
	order TraversalOrder
	pred  queryPred
	// root is the vertex the initiator addressed and this server
	// answers for: F_h(K) for superset and pin, the lowest masked
	// dimension's e_d for a prefix multicast.
	root hypercube.Vertex
	// op labels the query's telemetry span.
	op string
}

// parseQuery validates a msgTQuery.
func (s *Server) parseQuery(msg msgTQuery) (rootQuery, error) {
	if !msg.Class.valid() {
		return rootQuery{}, fmt.Errorf("core: invalid query class %d", msg.Class)
	}
	pred := predFor(msg.Class, msg.QueryKey)
	if pred.key == "" {
		return rootQuery{}, ErrEmptyQuery
	}
	if msg.Class != ClassPrefix {
		pred.set = keyword.ParseKey(pred.key)
	}
	if msg.Threshold <= 0 {
		return rootQuery{}, fmt.Errorf("core: threshold %d must be positive", msg.Threshold)
	}
	op := "superset-search"
	if msg.Class != ClassSuperset {
		// Paging (Section 3.3) is the superset search's; a prefix
		// multicast and a pin are one-shot.
		what := "pin query"
		if msg.Class == ClassPrefix {
			what, op = "prefix search", "prefix-search"
		}
		if msg.Cumulative || msg.SessionID != 0 {
			return rootQuery{}, fmt.Errorf("core: %s does not support cumulative sessions", what)
		}
	}
	order := msg.Order
	if order == 0 {
		order = TopDown
	}
	if !order.valid() {
		return rootQuery{}, fmt.Errorf("core: invalid traversal order %d", order)
	}
	cube, err := s.cubeFor(msg.Dim)
	if err != nil {
		return rootQuery{}, err
	}
	if msg.Class == ClassPrefix {
		full := uint64(1)<<uint(cube.Dim()) - 1
		if pred.mask = msg.DimMask & full; pred.mask == 0 {
			pred.mask = full
		}
	}
	pred.root = hypercube.Vertex(msg.Vertex)
	return rootQuery{msg: msg, cube: cube, order: order, pred: pred, root: pred.root, op: op}, nil
}

// tally is the cost and yield of the traversal work done for one
// request.
type tally struct {
	matches                             []Match
	nodes, msgs, failed, rounds, frames int
}

// runQuery is the root side of every query class: the paper's Steps
// 1–3 around the one traversal engine. The prologue (validate, resume
// or consult the cache, decide whether to trace) and the epilogue
// (respond, park the session, fill the cache, record telemetry) are the
// same for all classes; the classes differ only in the frontier they
// drain in between — one SBT for a superset search, one branch per
// masked dimension for a prefix multicast, a single childless vertex
// for a pin.
//
// A SoftOnly request reaches a soft replica of the root, which is not
// its owner and holds none of its table: it answers from its result
// cache or by refinement reuse, asks the owner once on a miss
// (askOwner), and otherwise bounces the request with
// errCodeNoSoftCopy, so the client takes the owner path.
func (s *Server) runQuery(ctx context.Context, msg msgTQuery) (respTQuery, error) {
	q, err := s.parseQuery(msg)
	if err != nil {
		return respTQuery{}, err
	}
	msg = q.msg
	// A pin is one table probe at one vertex. Caching it, sampling it
	// into spans or folding it into the core_search_* series would cost
	// more than the probe; core_ops_total{op="pin-search"} counts it.
	probe := msg.Class == ClassPin
	oneShot := msg.SessionID == 0 && !msg.Cumulative
	cacheable := oneShot && !msg.NoCache && !probe

	// Telemetry is sampled only when a registry is wired; the disabled
	// path takes no timestamps and allocates no trace.
	instrumented := s.cfg.Telemetry != nil && !probe
	var startedAt time.Time
	if instrumented {
		startedAt = time.Now()
	}
	// answered closes a query the root served without traversing.
	answered := func(resp respTQuery) (respTQuery, error) {
		if instrumented {
			s.recordSearchSpan(&q, resp, startedAt, time.Since(startedAt).Nanoseconds(), nil)
		}
		return resp, nil
	}

	var (
		sess      *session // a resumed one when continuing
		softAddrs []string
	)
	if msg.SessionID != 0 {
		if sess = s.sessions.take(msg.SessionID); sess == nil {
			return respTQuery{ErrCode: errCodeNoSession}, nil
		}
	}
	// Popularity tracking (owner only): every fresh one-shot superset
	// query for a root counts toward promotion, and a promoted root's
	// replica addresses ride back on the response — including on cache
	// hits, so clients learn the set without a miss.
	if oneShot && msg.Class == ClassSuperset && !msg.SoftOnly {
		softAddrs = s.hot.note(ctx, msg.Instance, q.root)
	}
	if cacheable {
		// Every consultation of an enabled cache counts exactly once, as
		// a hit or as a miss.
		if matches, exhausted, ok := s.cache.get(msg.Instance, q.pred, msg.Threshold); ok {
			s.met.cacheHits.Inc()
			return answered(respTQuery{Matches: matches, Exhausted: exhausted, CacheHit: true, SoftAddrs: softAddrs})
		} else if s.cache.enabled() {
			s.met.cacheMisses.Inc()
			// Cross-client refinement reuse (Lemma 3.3): before paying a
			// traversal, try deriving a superset answer from an exhausted
			// cached ancestor — any client's completed search for a
			// subset query covers this one. The miss above still counts
			// (RefineHit is deliberately not a CacheHit), so the Fig-9
			// hit accounting stays exact.
			if derived, ok := s.refineFromCache(&q); ok {
				s.met.refineHits.Inc()
				s.cache.put(msg.Instance, q.pred, derived, true)
				matches, exhausted, _ := truncateCached(derived, true, msg.Threshold)
				return answered(respTQuery{Matches: matches, Exhausted: exhausted, RefineHit: true, SoftAddrs: softAddrs})
			}
		}
	}
	if msg.SoftOnly {
		if resp, ok := s.askOwner(ctx, &q); ok {
			return answered(resp)
		}
		return respTQuery{ErrCode: errCodeNoSoftCopy}, nil
	}

	// Span aggregates (nodes, msgs, duration, …) are recorded for every
	// search, but the per-vertex step list costs a few KB per query and
	// the bounded span ring evicts most of it unread, so step detail is
	// sampled. Explicit trace requests always collect.
	collectSteps := msg.WantTrace
	if instrumented && !collectSteps {
		collectSteps = (s.searchSeq.Add(1)-1)%spanStepSampleEvery == 0
	}
	var trace *[]TraceStep
	if collectSteps {
		// One step per visited vertex; the wave can cover the root's
		// whole subcube, so size the buffer once instead of regrowing
		// mid-traversal.
		capHint := q.cube.SubcubeSize(q.root)
		if capHint > telemetry.MaxSpanSteps {
			capHint = telemetry.MaxSpanSteps
		}
		buf := make([]TraceStep, 0, capHint)
		trace = &buf
	}

	if sess == nil {
		if sess, err = newSession(&q); err != nil {
			return respTQuery{}, err
		}
	}
	total := s.traverse(ctx, sess, msg.Threshold, trace)
	if err := ctx.Err(); err != nil {
		// Cancelled or deadline-expired mid-traversal: the partial
		// result set is not a correct answer at any threshold, so the
		// search is abandoned outright — no caching, no session
		// retention — and the initiator sees the context error.
		s.met.searchAbandoned.Inc()
		return respTQuery{}, fmt.Errorf("core: search abandoned: %w", err)
	}
	// Threshold met with candidates left unvisited: the answer is a
	// correct prefix of the traversal, but not all of it.
	exhausted := len(sess.work) == 0

	resp := respTQuery{
		Matches:     total.matches,
		Exhausted:   exhausted,
		SubNodes:    total.nodes,
		SubMsgs:     total.msgs,
		FailedNodes: total.failed,
		PhysFrames:  total.frames,
		Rounds:      total.rounds,
		SoftAddrs:   softAddrs,
	}
	if msg.WantTrace && trace != nil {
		resp.Trace = *trace
	}
	if msg.Cumulative && !exhausted {
		resp.SessionID = s.sessions.save(sess)
	}
	if cacheable && total.failed == 0 {
		s.cache.put(msg.Instance, q.pred, total.matches, exhausted)
	}
	if instrumented {
		// One clock read shared by the latency histogram and the span.
		elapsedNS := time.Since(startedAt).Nanoseconds()
		s.met.searchNodes.Add(uint64(total.nodes))
		s.met.searchMsgs.Add(uint64(total.msgs))
		s.met.physFrames.Add(uint64(total.frames))
		s.met.searchFailed.Add(uint64(total.failed))
		s.met.searchRounds.Add(uint64(total.rounds))
		s.met.searchMatches.Add(uint64(len(total.matches)))
		s.met.searchLatency.Observe(elapsedNS)
		var steps []TraceStep
		if trace != nil {
			steps = *trace
		}
		s.recordSearchSpan(&q, resp, startedAt, elapsedNS, steps)
	}
	return resp, nil
}

// askOwner sends a soft replica's cache miss once to the root's owner
// as a plain (not SoftOnly) T_QUERY, which the owner answers from its
// own cache or traversal and which no peer may soft-serve or forward
// again. The replica keeps a complete answer in its own cache; the
// owner's soft-invalidation event drops it like any other entry there.
// The hop is charged to the answer: one more node contacted, a message
// pair, the frames sent and a round. ok is false, and the failure is
// counted with its cause, when the owner did not answer; the caller
// then bounces the request.
func (s *Server) askOwner(ctx context.Context, q *rootQuery) (respTQuery, bool) {
	s.met.softForwards.Inc()
	fwd := q.msg
	fwd.SoftOnly = false
	raw, frames, err := s.cfg.Resolver.Send(ctx, s.cfg.Sender, fwd.Instance, q.root, "", fwd)
	resp, ok := raw.(respTQuery)
	switch {
	case err != nil:
	case !ok:
		err = fmt.Errorf("unexpected response %T", raw)
	case resp.ErrCode != errCodeNone:
		err = fmt.Errorf("error code %d", resp.ErrCode)
	}
	if err != nil {
		s.softForwardFails.note(fmt.Sprintf("forward %s/%d %q to owner: %v", fwd.Instance, q.root, fwd.QueryKey, err))
		return respTQuery{}, false
	}
	if resp.FailedNodes == 0 {
		s.cache.put(fwd.Instance, q.pred, resp.Matches, resp.Exhausted)
	}
	resp.SubNodes++
	resp.SubMsgs += 2
	resp.PhysFrames += frames
	resp.Rounds++
	resp.SoftAddrs = nil // only owner-path responses advertise replicas
	return resp, true
}

// recordSearchSpan converts one completed search into a telemetry
// span: the T_QUERY/T_CONT/T_STOP wave tree the root drove, with
// per-step vertex and depth, bounded by telemetry.MaxSpanSteps. q.op
// labels the span with the query class ("superset-search",
// "prefix-search").
func (s *Server) recordSearchSpan(q *rootQuery, resp respTQuery, startedAt time.Time, elapsedNS int64, steps []TraceStep) {
	msg := &q.msg
	span := telemetry.Span{
		Op:             q.op,
		Instance:       msg.Instance,
		Query:          msg.QueryKey,
		Root:           uint64(q.root),
		Order:          q.order.String(),
		Start:          startedAt,
		DurationNS:     elapsedNS,
		Nodes:          resp.SubNodes,
		Msgs:           resp.SubMsgs,
		Failed:         resp.FailedNodes,
		Rounds:         resp.Rounds,
		Matches:        len(resp.Matches),
		CacheHit:       resp.CacheHit,
		Exhausted:      resp.Exhausted,
		ContinuedFrom:  msg.SessionID,
		SessionPending: resp.SessionID,
	}
	if resp.CacheHit || resp.RefineHit {
		span.Nodes = 1 // only the root was involved
	}
	if n := len(steps); n > 0 {
		kept := steps
		if n > telemetry.MaxSpanSteps {
			// Truncate to the first MaxSpanSteps-1 steps plus the final
			// one: the final step is where the wave halted, and a pure
			// prefix cut would silently drop its T_STOP marker.
			kept = make([]TraceStep, telemetry.MaxSpanSteps)
			copy(kept, steps[:telemetry.MaxSpanSteps-1])
			kept[telemetry.MaxSpanSteps-1] = steps[n-1]
			span.DroppedSteps = n - telemetry.MaxSpanSteps
		}
		span.Steps = make([]telemetry.SpanStep, len(kept))
		for i, st := range kept {
			kind := telemetry.StepCont
			if i == 0 && msg.SessionID == 0 {
				kind = telemetry.StepQuery // the initiator's T_QUERY at the root
			}
			if i == len(kept)-1 && !resp.Exhausted {
				kind = telemetry.StepStop // threshold met: the wave halted here
			}
			span.Steps[i] = telemetry.SpanStep{
				Kind:    kind,
				Vertex:  st.Vertex,
				Depth:   q.pred.depth(q.root, hypercube.Vertex(st.Vertex)),
				Matches: st.Matches,
				Failed:  st.Failed,
			}
		}
	}
	s.cfg.Telemetry.RecordSpan(span)
}

// newSession builds the one frontier of a fresh query.
func newSession(q *rootQuery) (*session, error) {
	sess := &session{instance: q.msg.Instance, cube: q.cube, pred: q.pred, order: q.order, root: q.root}
	switch {
	case q.msg.Class == ClassPin:
		// Section 3.4: the exact set lives at one vertex; nothing below
		// it is a candidate.
		sess.work = []workUnit{{vertex: q.root, genDim: -1}}
	case q.order == BottomUp && q.cube.Dim()-q.root.OnesCount() > maxBottomUpFree:
		return nil, fmt.Errorf("core: bottom-up traversal over %d free dimensions exceeds limit %d",
			q.cube.Dim()-q.root.OnesCount(), maxBottomUpFree)
	default:
		sess.work = sess.seed()
	}
	return sess, nil
}

// traverse is the one frontier engine: it drains sess.work until
// threshold matches are collected, the frontier is empty or ctx ends,
// and returns what it did. The frontier is branch-major: each branch's
// units form one run, in ascending branch order (a prefix multicast has
// one branch per masked dimension, every other query one). Each round
// takes a wave — the first w units of the leading run — dispatches it,
// consumes the results in frontier order, and leaves
//
//	work = resume units of the wave ++ untouched rest of its run
//	       ++ children of the wave ++ the later runs
//
// The paper's sequential Steps 1–3 (TopDown, and BottomUp over a
// pre-enumerated frontier) are w = 1: pop one node, scan it, append its
// children, stop as soon as the threshold is met (T_STOP). Section
// 3.5's level-synchronous variant is w = the whole run: every node of
// the branch's level is queried concurrently, over-fetched matches from
// nodes beyond the stopping point are discarded and those nodes kept as
// match-only resume units. A cumulative search is this loop suspended:
// the session is parked with its frontier and a later page calls
// traverse again.
//
// How a wave is dispatched changes only the physical framing, never
// what the consume loop sees. Width-1 waves and BatchOff send one
// one-unit msgSubQueryBatch per vertex; ParallelLevels with BatchOn
// sends one per distinct physical peer and, once flattenTail says
// another level-synchronous round could only confirm what the rounds of
// the branch so far predict, sends the whole rest of the branch as a
// single mega-wave — the root generates every SBT child list itself
// anyway. An exhaustive search (threshold All — no early stop can
// occur) does so on its first round, for every branch at once: the wave
// is the whole frontier expanded one run at a time, the units
// back-to-back per-branch mega-waves would send, in their order. Should
// a flattened wave meet the threshold after all, the levels below the
// one it stopped in were over-contacted: they are counted, their answers
// discarded, and the frontier is left exactly as the level-synchronous
// search would leave it.
//
// Every child list is generated here, never received: a node's reply
// carries only its matches. Failed nodes are therefore skipped and
// counted with their subtree still explored.
//
// Every buffer private to the root — the expanded wave, its hits
// indexed by position, the grouping by peer and the batch frames' units,
// the children and resumes —
// lives in one waveScratch taken for the call, so a traversal allocates
// per query, not per contacted vertex.
func (s *Server) traverse(ctx context.Context, sess *session, need int, trace *[]TraceStep) (t tally) {
	sc := scratchPool.Get().(*waveScratch)
	defer sc.release()
	levelWaves := sess.order == ParallelLevels
	batch := levelWaves && s.cfg.BatchWaves == BatchOn
	// flattenTail judges the branch being drained alone: the need it
	// started with and the nodes seen since it became the leading run.
	// (Before the first round they are need and 0 whatever the branch.)
	threshold, entered, branch := need, 0, sess.root
	for len(sess.work) > 0 && need > 0 && ctx.Err() == nil {
		t.rounds++
		if b := sess.branch(sess.work[0].vertex); b != branch {
			branch, entered = b, t.nodes
			if threshold != All {
				threshold = need
			}
		}
		width := 1
		if levelWaves {
			width = sess.run(sess.work, branch)
		}
		flat := batch && sess.cube.Dim()-sess.root.OnesCount() <= maxBottomUpFree &&
			flattenTail(threshold, need, t.nodes-entered, sess.remaining(sess.work[:width]))
		if flat && threshold == All {
			// No early stop can occur: every branch goes in this wave.
			width = len(sess.work)
		}
		wave, rest := sess.work[:width], sess.work[width:]
		if flat {
			sc.expanded = expandFrontier(sc.expanded, sess, wave)
			wave = sc.expanded
		}

		sc.hits = resized(sc.hits, len(wave))
		hits := sc.hits
		if batch {
			t.frames += s.dispatchWave(ctx, sess, wave, need, sc)
		} else {
			fanOut(len(wave), parallelFanout, func(i int) {
				hits[i] = s.visit(ctx, sess, wave[i], need, "")
			})
		}

		// The wave's takes add up to min(its matches, need): the answer
		// grows once per wave, so a mega-wave allocates it exactly once.
		got := 0
		for i := range hits {
			got += len(hits[i].matches)
		}
		t.matches = slices.Grow(t.matches, min(got, need))
		resumes, children := sc.resumes[:0], sc.children[:0]
		stopDepth := sess.cube.Dim() // where a flat wave met the threshold; nothing is deeper yet
		for i, u := range wave {
			res := &hits[i] // zero: the unit was owned, scanned and empty
			t.nodes++
			t.frames += res.frames
			if u.vertex != sess.root {
				// The paper's logical accounting charges a T_QUERY/T_CONT
				// exchange for every vertex other than the root, however
				// few frames carried it.
				t.msgs += 2
			}
			take := min(len(res.matches), need)
			if trace != nil {
				*trace = append(*trace, TraceStep{
					Vertex:  uint64(u.vertex),
					Matches: take,
					Failed:  res.err != nil,
				})
			}
			if res.err != nil {
				t.failed++
			}
			depth := sess.pred.depth(sess.root, u.vertex)
			if flat && depth > stopDepth {
				// Over-contacted: a level-synchronous search would have
				// stopped above this unit. The next level goes back on the
				// frontier as if never asked — SBT paths add dimensions in
				// descending order, so a vertex was generated by its lowest
				// bit beyond its branch root — and deeper ones hang off it
				// again.
				if depth == stopDepth+1 {
					children = append(children, workUnit{vertex: u.vertex, genDim: bits.TrailingZeros64(uint64(u.vertex &^ sess.branch(u.vertex)))})
				}
				continue
			}
			// The T_CONT child list is geometry: generated here, failed
			// node or not, so the rest of the subtree is still explored.
			children = sess.appendChildren(children, u)
			if res.err != nil {
				continue
			}
			t.matches = append(t.matches, res.matches[:take]...)
			if need -= take; need == 0 {
				stopDepth = min(stopDepth, depth)
			}
			if take < len(res.matches) || res.remaining > 0 {
				// Partially consumed, or contacted after the threshold was
				// met: resume it first on continuation.
				resumes = append(resumes, workUnit{vertex: u.vertex, genDim: -1, skip: u.skip + take})
			}
		}
		sc.resumes, sc.children = resumes, children
		// Both are copied out of the scratch: a parked session outlives it.
		// The children close their branch's run, ahead of later branches.
		work := rest
		if len(resumes) > 0 {
			work = make([]workUnit, 0, len(resumes)+len(rest)+len(children))
			work = append(append(work, resumes...), rest...)
		}
		sess.work = slices.Insert(work, len(work)-len(rest)+sess.run(rest, branch), children...)
	}
	return t
}

// waveHit is what one unit of a wave had to say: matches, matches
// beyond the window, frames spent on it alone, or a failure. Dispatch
// fills a wave's hits indexed by position; a zero hit means the unit
// was owned, scanned and empty, and cost the root nothing beyond its
// place in the wave. frames counts the physical RPC frames sent for
// this unit alone (zero when a batch or a local shortcut absorbed it).
type waveHit struct {
	matches   []Match
	remaining int
	frames    int
	err       error
}

// waveScratch is the root's private working memory for one traverse
// call: a flattened wave's units, the wave's vertices and resolved
// addresses, its dense hits, the per-peer grouping of a batched
// dispatch with the frames' units, and the children and resumes the
// consume loop collects. Nothing that outlives the round may alias it —
// not sess.work, not the tally's matches (DESIGN §7). A Send body may:
// the transport.Sender contract hands it back when Send returns.
type waveScratch struct {
	expanded, children, resumes []workUnit
	vertices                    []hypercube.Vertex
	addrs                       []transport.Addr
	hits                        []waveHit
	dest, idx                   []int32
	units                       []wireUnit
	peers                       []peerBatch
	peerOf                      map[transport.Addr]int32
}

var scratchPool = sync.Pool{New: func() any {
	return &waveScratch{peerOf: make(map[transport.Addr]int32)}
}}

// release clears every slot that can hold a pointer, so a pooled
// scratch keeps no answer, address or error alive, and returns it to
// the pool.
func (sc *waveScratch) release() {
	clear(sc.hits[:cap(sc.hits)])
	clear(sc.addrs[:cap(sc.addrs)])
	clear(sc.peers[:cap(sc.peers)])
	clear(sc.peerOf)
	scratchPool.Put(sc)
}

// resized returns buf at length n with every element zero, reusing its
// array when that is large enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// visit scans one work unit: in place when it is the root vertex this
// server answers for, via a one-unit T_QUERY/T_CONT frame otherwise —
// to at first when it is set, the owner a wave named for the unit, so
// the unit costs the frames it would unbatched. A unit its peer refuses
// is routed on like any refused request.
func (s *Server) visit(ctx context.Context, sess *session, u workUnit, limit int, at transport.Addr) waveHit {
	if u.vertex == sess.root {
		sc := s.scanner(sess.instance)
		defer sc.release()
		return s.scanLocal(ctx, &sc, ownedArc{}, sess, u, limit)
	}
	raw, frames, err := s.cfg.Resolver.Send(ctx, s.cfg.Sender, sess.instance, u.vertex, at,
		sess.frame(ctx, limit, []wireUnit{{Vertex: uint64(u.vertex), Skip: u.skip}}))
	resp, ok := raw.(respSubQueryBatch)
	switch {
	case err != nil:
	case !ok || !resp.fits(1):
		err = fmt.Errorf("core: unexpected sub-query response %T", raw)
	case len(resp.Hits) == 1:
		hit, retry := unitHit(ctx, &resp.Hits[0])
		if !retry {
			hit.frames = frames
			return hit
		}
		err = fmt.Errorf("core: sub-query unit refused with code %d", resp.Hits[0].ErrCode)
	}
	return waveHit{frames: frames, err: err}
}

// frame is the sub-query frame asking for units of sess's query, with
// ctx's deadline.
func (sess *session) frame(ctx context.Context, limit int, units []wireUnit) msgSubQueryBatch {
	msg := msgSubQueryBatch{
		Instance: sess.instance,
		Root:     uint64(sess.root),
		QueryKey: sess.pred.key,
		Limit:    limit,
		Units:    units,
		Class:    sess.pred.class,
	}
	if dl, ok := ctx.Deadline(); ok {
		msg.DeadlineUnixNano = dl.UnixNano()
	}
	return msg
}

// unitHit is the wave hit of one answered unit. retry reports a unit
// its peer could not serve while the search can still use it: the root
// sends it again on its own.
func unitHit(ctx context.Context, r *respSubUnit) (hit waveHit, retry bool) {
	switch {
	case r.ErrCode == errCodeNone:
		return waveHit{matches: r.Matches, remaining: r.Remaining}, false
	case ctx.Err() != nil:
		// The search itself is dead; retries would only spray doomed
		// frames at an already loaded peer.
		return waveHit{err: ctx.Err()}, false
	case r.ErrCode == errCodeCancelled:
		return waveHit{err: context.DeadlineExceeded}, false
	}
	return waveHit{}, true
}

// scanLocal answers a unit from this server's own tables through sc,
// sess's scanner, with no frame; a vertex outside arc (the zero arc for
// the root, whose ownership the T_QUERY handler settled) is an
// ErrNotOwner hit.
func (s *Server) scanLocal(ctx context.Context, sc *unitScanner, arc ownedArc, sess *session, u workUnit, limit int) waveHit {
	matches, remaining, owned := sc.read(ctx, nil, arc, u.vertex, sess.root, &sess.pred, u.skip, limit)
	if !owned {
		return waveHit{err: ErrNotOwner}
	}
	return waveHit{matches: matches, remaining: remaining}
}

// flattenTail is the wave-width rule of a batched level search: send
// everything left (the `left` unvisited vertices under the frontier) as
// one wave, or go on a level at a time? With no early stop to protect —
// threshold All — at once. Otherwise when the seen vertices, having
// yielded threshold-need matches, say the unseen ones cannot supply the
// rest even if they were twice as rich, and never assuming less than one
// match: max(1, 2·got)·left < need·seen. Each further level would then
// be a round trip that only confirms. The constants are measured, not
// tunable (DESIGN §7); the min keeps the product inside an int.
func flattenTail(threshold, need, seen, left int) bool {
	if threshold == All {
		return seen == 0
	}
	supply := max(1, 2*(threshold-need)) * left
	return seen > 0 && supply < min(need, supply+1)*seen
}

// expandFrontier transitively expands a frontier into the full list of
// work units its traversal would visit, in the exact order the
// level-by-level waves would concatenate to: run by run (one per
// branch), each unit followed by its SBT children, generated
// breadth-first — the output slice is its own queue: dst's array when
// remaining fits it, else one sized exactly by remaining. Expanded
// units carry genDim -1 so the consume loop neither re-appends their
// children on success nor regenerates them on failure — the whole
// subtree is already in the wave. dst must not overlap frontier.
func expandFrontier(dst []workUnit, sess *session, frontier []workUnit) []workUnit {
	out := dst[:0]
	if n := sess.remaining(frontier); cap(out) < n {
		out = make([]workUnit, 0, n)
	}
	for len(frontier) > 0 {
		i, k := len(out), sess.run(frontier, sess.branch(frontier[0].vertex))
		out = append(out, frontier[:k]...)
		for ; i < len(out); i++ {
			out = sess.appendChildren(out, out[i])
			out[i].genDim = -1
		}
		frontier = frontier[k:]
	}
	return out
}

// dispatchWave answers one wave of work units, coalescing every unit
// whose owner is the same physical peer into one msgSubQueryBatch. It
// fills sc.hits, which traverse sized to the wave and zeroed, indexed
// by position, and returns the number of batch frames sent (per-unit
// fallback frames are carried in the individual hits). Units the
// dispatching server can answer itself — the query root, plus any
// vertex with the root's owner — are scanned locally with no frame at
// all. Any unit a batch cannot serve (transport failure, or per-unit
// ownership error) falls back to a one-unit visit to the same owner,
// routed on from there, so failure semantics are identical to the
// unbatched mode.
func (s *Server) dispatchWave(ctx context.Context, sess *session, wave []workUnit, limit int, sc *waveScratch) int {
	// The whole wave is named positionally, so addrs[i] belongs to
	// wave[i] with no index slice in between; another branch's root
	// (prefix multicast) is a remote vertex like any other. This
	// server's root rides last: it is hosted here (its T_QUERY was
	// accepted), so a vertex with the root's owner is too. Over Chord,
	// whose route names a key in the node's own arc (pred, self] as the
	// node itself, that is the vertex's ring key tested against the arc.
	// Failing to name the root only disables the shortcut.
	n := len(wave)
	vertices := resized(sc.vertices, n+1)
	for i, u := range wave {
		vertices[i] = u.vertex
	}
	vertices[n] = sess.root
	addrs := resized(sc.addrs, n+1)
	sc.vertices, sc.addrs = vertices, addrs
	errs := s.cfg.Resolver.Owners(ctx, sess.instance, vertices, addrs)
	selfAddr := addrs[n]
	if errs != nil && errs[n] != nil {
		selfAddr = ""
	}
	arc := s.arc()

	// Units this server can answer are scanned on the spot, no frame,
	// through one scanner, as a peer scans a frame; the rest are counted
	// per destination peer, in first-seen dispatch order, and then carved
	// out of one index slice.
	hits, peers, peerOf := sc.hits, sc.peers[:0], sc.peerOf
	clear(peerOf)
	dest := resized(sc.dest, len(wave)) // wave position → peer, -1: answered here
	local := s.scanner(sess.instance)
	for i, u := range wave {
		dest[i] = -1
		switch addr := addrs[i]; {
		case u.vertex == sess.root:
			hits[i] = s.scanLocal(ctx, &local, ownedArc{}, sess, u, limit)
		case errs != nil && errs[i] != nil:
			hits[i].err = errs[i]
		case selfAddr == "" || addr != selfAddr:
			k, seen := peerOf[addr]
			if !seen {
				k = int32(len(peers))
				peerOf[addr] = k
				peers = append(peers, peerBatch{addr: addr})
			}
			peers[k].n++
			dest[i] = k
		default:
			if hits[i] = s.scanLocal(ctx, &local, arc, sess, u, limit); hits[i].err == nil {
				s.met.coalesced.Inc() // frame avoided entirely
			} else {
				// The route names this server but the DHT layer no
				// longer owns the vertex: take the remote path.
				local.release()
				hits[i] = s.visit(ctx, sess, u, limit, addr)
			}
		}
	}
	local.release()
	remote := 0
	for k := range peers {
		peers[k].end, remote = remote, remote+peers[k].n
	}
	// The frames' units are carved out of one array parallel to idx.
	idx, units := resized(sc.idx, remote), resized(sc.units, remote)
	for i, k := range dest {
		if k >= 0 {
			u, j := wave[i], peers[k].end
			idx[j] = int32(i)
			units[j] = wireUnit{Vertex: uint64(u.vertex), Skip: u.skip}
			peers[k].end++
		}
	}
	sc.dest, sc.idx, sc.units, sc.peers = dest, idx, units, peers

	// One batch per distinct peer, concurrently, fanout-bounded; each
	// writes only its own units' hits.
	fanOut(len(peers), parallelFanout, func(k int) {
		p := peers[k]
		s.sendBatch(ctx, sess, p.addr, idx[p.end-p.n:p.end], units[p.end-p.n:p.end], wave, limit, hits)
	})
	return len(peers)
}

// fanOut runs fn(0) … fn(n-1) on min(n, limit) workers that claim
// indices from a shared cursor, and returns once all have finished. The
// caller is one of the workers, so a single call — the paper's
// sequential orders dispatch one vertex at a time — or a limit of one
// starts no goroutine, and a wave to p peers starts p-1.
func fanOut(n, limit int, fn func(i int)) {
	workers := min(n, limit)
	if workers <= 1 {
		// Before the shared state below exists: it would move to the heap.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			fn(i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
}

// peerBatch is one destination of a batched wave: its address and its
// units, idx[end-n : end] of the wave's grouped positions once carved.
type peerBatch struct {
	addr   transport.Addr
	n, end int
}

// sendBatch sends one coalesced msgSubQueryBatch frame carrying units —
// the work units at positions idx of wave — and writes their hits to
// hits at those positions. Units the batch could not serve are retried
// one unit per frame (visit) and carry those frames in their own hits.
func (s *Server) sendBatch(ctx context.Context, sess *session, addr transport.Addr, idx []int32, units []wireUnit, wave []workUnit, limit int, hits []waveHit) {
	s.met.batchSize.Observe(int64(len(units)))
	raw, err := s.cfg.Sender.Send(ctx, addr, sess.frame(ctx, limit, units))
	resp, shapeOK := raw.(respSubQueryBatch)
	if err != nil || !shapeOK || !resp.fits(len(units)) {
		// The whole frame failed (peer down, partitioned, or answered
		// nonsense): as if the peer had refused every unit, each retries
		// individually, which reproduces the unbatched failure
		// accounting exactly.
		resp.Hits = make([]respSubUnit, len(units))
		for j := range resp.Hits {
			resp.Hits[j] = respSubUnit{Index: j, ErrCode: errCodeNotOwner}
		}
	} else {
		s.met.coalesced.Add(uint64(len(units) - 1))
	}
	for j := range resp.Hits {
		i := idx[resp.Hits[j].Index]
		var retry bool
		if hits[i], retry = unitHit(ctx, &resp.Hits[j]); retry {
			hits[i] = s.visit(ctx, sess, wave[i], limit, addr)
		}
	}
}

// fits reports that the response is a well-formed answer to a request
// of n units: hit indices strictly increasing and inside [0, n).
func (m *respSubQueryBatch) fits(n int) bool {
	prev := -1
	for i := range m.Hits {
		if m.Hits[i].Index <= prev || m.Hits[i].Index >= n {
			return false
		}
		prev = m.Hits[i].Index
	}
	return true
}

// appendChildren appends u's SBT child list L = {(x, i) : i < genDim,
// i ∈ Zero(u)} to dst as work units, highest dimension first
// (hypercube.InducedChildEdges' list, written in place), less the
// children along a dimension u's branch excludes (session.closed). SBT
// paths only accumulate bits, so cutting a child here removes exactly
// the subtree of vertices carrying an excluded dimension — every other
// descendant stays reachable, and in u's branch. Match-only units
// (genDim < 0) have none: their children were generated on their first
// visit.
func (sess *session) appendChildren(dst []workUnit, u workUnit) []workUnit {
	closed := sess.closed(u.vertex)
	for j := u.genDim - 1; j >= 0; j-- {
		if !closed.Bit(j) {
			dst = append(dst, workUnit{vertex: u.vertex.Neighbor(j), genDim: j})
		}
	}
	return dst
}
