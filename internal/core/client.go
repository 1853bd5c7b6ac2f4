package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Client is the initiator-side API of the index scheme. Any peer (it
// does not need to host index tables itself) can create a Client to
// insert, delete and search objects.
type Client struct {
	instance string
	hasher   keyword.Hasher
	resolver Resolver
	sender   transport.Sender
	clientID string

	// spread, when enabled, round-robins one-shot searches for
	// promoted hot roots across owner + advertised soft replicas.
	// Hints are trusted only from owner-path responses, and an entry
	// dies on the first send error (fall back to the owner) or when
	// the owner stops advertising (demotion).
	spreadOn bool
	spreadMu sync.Mutex
	spread   map[hypercube.Vertex]*spreadState
}

// spreadState is the known soft-replica set of one promoted root.
type spreadState struct {
	addrs []transport.Addr
	next  int
}

// DefaultInstance is the index-instance name used when none is given.
const DefaultInstance = "main"

// NewClient builds a client for the default index instance, sharing
// the deployment's hasher, vertex resolver and transport.
func NewClient(hasher keyword.Hasher, resolver Resolver, sender transport.Sender) (*Client, error) {
	return NewInstanceClient(DefaultInstance, hasher, resolver, sender)
}

// NewInstanceClient builds a client for a named index instance.
// Decomposed and replicated indexes use distinct instance names so
// their entries stay separate even when they share physical nodes;
// the resolver must be salted with the same instance name.
func NewInstanceClient(instance string, hasher keyword.Hasher, resolver Resolver, sender transport.Sender) (*Client, error) {
	if resolver == nil || sender == nil {
		return nil, fmt.Errorf("core: client needs a Resolver and a Sender")
	}
	if instance == "" {
		instance = DefaultInstance
	}
	return &Client{instance: instance, hasher: hasher, resolver: resolver, sender: sender}, nil
}

// Instance returns the index-instance name this client addresses.
func (c *Client) Instance() string { return c.instance }

// SetClientID attaches a client identity to every subsequent request
// from this client. Servers running with admission control use it as
// the fair-queuing key (per-client token buckets); the empty default
// is anonymous and bypasses fair queuing. Not safe for concurrent use
// with in-flight requests — set it right after construction.
func (c *Client) SetClientID(id string) { c.clientID = id }

// Hasher returns the deployment hasher (shared with servers).
func (c *Client) Hasher() keyword.Hasher { return c.hasher }

// SetSpread toggles request spreading across the soft replicas of
// promoted hot roots (advertised via respTQuery.SoftAddrs). Off by
// default. Like SetClientID, set it right after construction.
func (c *Client) SetSpread(on bool) { c.spreadOn = on }

// ResolveRoot returns the physical address of the node responsible for
// keyword set k in this client's instance — a diagnostic hook used by
// failure-injection tests and monitoring.
func (c *Client) ResolveRoot(ctx context.Context, k keyword.Set) (transport.Addr, error) {
	return resolveOwner(ctx, c.resolver, c.instance, c.hasher.Vertex(k))
}

// send delivers body to vertex v's owner by the resolver's routing
// rule.
func (c *Client) send(ctx context.Context, v hypercube.Vertex, body any) (any, error) {
	resp, _, err := c.resolver.Send(ctx, c.sender, c.instance, v, "", body)
	return resp, err
}

// request builds the msgTQuery of every query kind — superset,
// cumulative page, prefix, refinement and pin differ only in the class,
// the addressed vertex, the key and the few fields their callers set
// afterwards. It stamps the client identity (opts.ClientID overrides
// the client's own) and carries ctx's deadline to the root.
func (c *Client) request(ctx context.Context, class QueryClass, root hypercube.Vertex, key string, threshold int, opts SearchOptions) (msgTQuery, error) {
	if threshold <= 0 {
		return msgTQuery{}, fmt.Errorf("core: threshold %d must be positive", threshold)
	}
	opts = opts.withDefaults()
	msg := msgTQuery{
		Instance:  c.instance,
		Dim:       c.hasher.Dim(),
		Vertex:    uint64(root),
		QueryKey:  key,
		Class:     class,
		Threshold: threshold,
		Order:     opts.Order,
		NoCache:   opts.NoCache,
		WantTrace: opts.Trace,
		ClientID:  opts.ClientID,
	}
	if msg.ClientID == "" {
		msg.ClientID = c.clientID
	}
	if dl, ok := ctx.Deadline(); ok {
		msg.DeadlineUnixNano = dl.UnixNano()
	}
	return msg, nil
}

// ask delivers one msgTQuery to the owner of vertex `to` and returns
// the root's answer. With spreadable set, an eligible query is first
// offered to one of a promoted root's soft replicas; a spread attempt
// that fails — transport error, a malformed answer, or a bounce
// (errCodeNoSoftCopy: the replica was demoted, or could not reach the
// owner for a miss) — forgets the replica set and falls back to the
// owner path, so a stale hint costs at most one extra round trip.
func (c *Client) ask(ctx context.Context, to hypercube.Vertex, msg msgTQuery, spreadable bool) (resp respTQuery, viaSoft bool, err error) {
	if c.spreadOn && spreadable {
		if addr, ok := c.pickSoft(to); ok {
			soft := msg
			soft.SoftOnly = true
			if raw, err := c.sender.Send(ctx, addr, soft); err == nil {
				if resp, ok := raw.(respTQuery); ok && resp.ErrCode != errCodeNoSoftCopy {
					return resp, true, nil
				}
			}
			c.dropSoft(to)
		}
	}
	raw, err := c.send(ctx, to, msg)
	if err != nil {
		return respTQuery{}, false, err
	}
	resp, ok := raw.(respTQuery)
	if !ok {
		return respTQuery{}, false, fmt.Errorf("unexpected response %T", raw)
	}
	return resp, false, nil
}

// result maps the root's answer to the caller's view of it: the
// paper's cost units (Section 3.5) with the initiator's own round trip
// added, and the completeness of a degraded wave.
func result(resp respTQuery, viaSoft bool) Result {
	stats := Stats{
		NodesContacted: resp.SubNodes,
		Messages:       resp.SubMsgs + 2, // plus the initiator↔root round trip
		Rounds:         resp.Rounds,
		PhysFrames:     resp.PhysFrames + 1, // plus the initiator's frame to the root
		CacheHit:       resp.CacheHit,
		RefineHit:      resp.RefineHit,
		SoftServed:     viaSoft,
	}
	if resp.CacheHit || resp.RefineHit {
		// Only the root was involved, plus the owner when a soft
		// replica forwarded its miss (askOwner counts that hop).
		stats.NodesContacted = 1 + resp.SubNodes
	}
	completeness := 1.0
	if resp.FailedNodes > 0 && resp.SubNodes > 0 {
		completeness = float64(resp.SubNodes-resp.FailedNodes) / float64(resp.SubNodes)
	}
	return Result{
		Matches:        resp.Matches,
		Exhausted:      resp.Exhausted,
		Stats:          stats,
		SessionID:      resp.SessionID,
		Completeness:   completeness,
		FailedSubtrees: resp.FailedNodes,
		Trace:          resp.Trace,
	}
}

// pickSoft round-robins over owner + replicas of a known-promoted
// root; the owner keeps its fair share of the load (slot 0), which
// also refreshes the advertisement periodically.
func (c *Client) pickSoft(v hypercube.Vertex) (transport.Addr, bool) {
	c.spreadMu.Lock()
	defer c.spreadMu.Unlock()
	st := c.spread[v]
	if st == nil || len(st.addrs) == 0 {
		return "", false
	}
	slot := st.next % (len(st.addrs) + 1)
	st.next++
	if slot == 0 {
		return "", false // the owner's turn
	}
	return st.addrs[slot-1], true
}

// noteSoftAddrs records (or clears) the replica set an owner-path
// response advertised for root v.
func (c *Client) noteSoftAddrs(v hypercube.Vertex, addrs []string) {
	if !c.spreadOn {
		return
	}
	c.spreadMu.Lock()
	defer c.spreadMu.Unlock()
	if len(addrs) == 0 {
		delete(c.spread, v)
		return
	}
	list := make([]transport.Addr, len(addrs))
	for i, a := range addrs {
		list[i] = transport.Addr(a)
	}
	if c.spread == nil {
		c.spread = make(map[hypercube.Vertex]*spreadState)
	}
	if st := c.spread[v]; st != nil {
		st.addrs = list // keep the rotation position
		return
	}
	c.spread[v] = &spreadState{addrs: list}
}

// dropSoft forgets the replica set of root v.
func (c *Client) dropSoft(v hypercube.Vertex) {
	c.spreadMu.Lock()
	delete(c.spread, v)
	c.spreadMu.Unlock()
}

// entry is obj's index entry ⟨K_σ, σ⟩ in the client's instance and
// the vertex F_h(K_σ) whose table holds it.
func (c *Client) entry(obj Object) (hypercube.Vertex, store.Entry, error) {
	if err := obj.Validate(); err != nil {
		return 0, store.Entry{}, err
	}
	v := c.hasher.Vertex(obj.Keywords)
	return v, store.Entry{Instance: c.instance, Vertex: uint64(v), SetKey: obj.Keywords.Key(), ObjectID: obj.ID}, nil
}

// Insert places the index entry ⟨K_σ, σ⟩ at the node responsible for
// the object's keyword set: one lookup plus one message, per Section
// 3.5. Stats reports the cost.
func (c *Client) Insert(ctx context.Context, obj Object) (Stats, error) {
	v, e, err := c.entry(obj)
	if err != nil {
		return Stats{}, err
	}
	if _, err := c.send(ctx, v, msgInsertEntry{Entry: e, ClientID: c.clientID}); err != nil {
		return Stats{}, fmt.Errorf("insert %q: %w", obj.ID, err)
	}
	return Stats{NodesContacted: 1, Messages: 2}, nil
}

// Delete removes the index entry of the object. It reports whether the
// entry existed.
func (c *Client) Delete(ctx context.Context, obj Object) (bool, Stats, error) {
	v, e, err := c.entry(obj)
	if err != nil {
		return false, Stats{}, err
	}
	raw, err := c.send(ctx, v, msgDeleteEntry{Entry: e, ClientID: c.clientID})
	if err != nil {
		return false, Stats{}, fmt.Errorf("delete %q: %w", obj.ID, err)
	}
	resp, ok := raw.(respDeleteEntry)
	if !ok {
		return false, Stats{}, fmt.Errorf("delete %q: unexpected response %T", obj.ID, raw)
	}
	return resp.Found, Stats{NodesContacted: 1, Messages: 2}, nil
}

// PinSearch returns the IDs of objects associated with exactly the
// keyword set K: one message for the query and one for the result
// (Section 3.4), a msgTQuery of ClassPin to the owner of F_h(K).
func (c *Client) PinSearch(ctx context.Context, k keyword.Set) ([]string, Stats, error) {
	if k.IsEmpty() {
		return nil, Stats{}, ErrEmptyQuery
	}
	v := c.hasher.Vertex(k)
	msg, err := c.request(ctx, ClassPin, v, k.Key(), All, SearchOptions{})
	if err != nil {
		return nil, Stats{}, err
	}
	resp, _, err := c.ask(ctx, v, msg, false)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("pin search %v: %w", k, err)
	}
	var ids []string
	if n := len(resp.Matches); n > 0 {
		ids = make([]string, n)
		for i, m := range resp.Matches {
			ids[i] = m.ObjectID
		}
	}
	// Like Insert and Delete, a pin reports the paper's two cost units
	// for a single exchange and nothing else.
	return ids, Stats{NodesContacted: 1, Messages: 2}, nil
}

// PrefixSearch returns up to threshold objects whose keyword sets
// contain at least one keyword starting with prefix. The query is a
// constrained multicast (one SBT branch per dimension the prefix can
// hash to), coordinated by the owner of the lowest candidate
// dimension; threshold must be positive, and All is accepted.
func (c *Client) PrefixSearch(ctx context.Context, prefix string, threshold int, opts SearchOptions) (Result, error) {
	return c.PrefixSearchMasked(ctx, prefix, 0, threshold, opts)
}

// PrefixSearchMasked is PrefixSearch with an explicit dimension mask:
// only SBT branches rooted at dimensions in mask are visited. A zero
// mask means every dimension. Callers that know the deployment
// vocabulary shrink the mask with Hasher.PrefixMask to turn the
// broadcast into a targeted multicast.
func (c *Client) PrefixSearchMasked(ctx context.Context, prefix string, mask uint64, threshold int, opts SearchOptions) (Result, error) {
	p := keyword.Normalize(prefix)
	if p == "" {
		return Result{}, ErrEmptyQuery
	}
	full := uint64(1)<<uint(c.hasher.Dim()) - 1
	if mask == 0 {
		mask = full
	}
	mask &= full
	if mask == 0 {
		return Result{}, fmt.Errorf("core: dimension mask selects no dimensions")
	}
	root := hypercube.Vertex(mask & -mask) // lowest masked dimension coordinates
	msg, err := c.request(ctx, ClassPrefix, root, p, threshold, opts)
	if err != nil {
		return Result{}, err
	}
	msg.DimMask = mask
	resp, _, err := c.ask(ctx, root, msg, false)
	if err != nil {
		return Result{}, fmt.Errorf("prefix search %q: %w", p, err)
	}
	return result(resp, false), nil
}

// SupersetSearch returns up to threshold objects whose keyword sets
// contain K, exploring the subhypercube induced by F_h(K). threshold
// must be positive; pass All for an unbounded search.
func (c *Client) SupersetSearch(ctx context.Context, k keyword.Set, threshold int, opts SearchOptions) (Result, error) {
	return c.search(ctx, k, threshold, opts, false, 0)
}

// All is a threshold meaning "every matching object".
const All = int(^uint(0) >> 1)

// RefineSearch narrows a previously searched base query to a refined
// superset query refined ⊇ base (Lemma 3.3: the refined subcube is
// contained in the base's). The request goes to the BASE root's owner
// — the node whose result cache plausibly holds the base query's
// complete (exhausted) answer — which derives the refined answer from
// that cached state without any traversal. When the receiver has no
// usable state (nothing cached, base never exhausted, entry evicted
// or invalidated) the client transparently falls back to a plain
// SupersetSearch for the refined query, so RefineSearch is always
// safe to call; Stats.RefineHit reports which path answered.
func (c *Client) RefineSearch(ctx context.Context, base, refined keyword.Set, threshold int, opts SearchOptions) (Result, error) {
	if base.IsEmpty() || refined.IsEmpty() {
		return Result{}, ErrEmptyQuery
	}
	if !base.SubsetOf(refined) {
		return Result{}, fmt.Errorf("core: refine base %v is not a subset of %v", base, refined)
	}
	if opts.NoCache || base.Equal(refined) {
		// NoCache forbids serving from cached state by definition, and
		// refining to the identical query is just a plain search.
		return c.search(ctx, refined, threshold, opts, false, 0)
	}
	msg, err := c.request(ctx, ClassSuperset, c.hasher.Vertex(refined), refined.Key(), threshold, opts)
	if err != nil {
		return Result{}, err
	}
	baseV := c.hasher.Vertex(base)
	msg.RefineFromKey, msg.RefineFromVertex = base.Key(), uint64(baseV)
	resp, _, err := c.ask(ctx, baseV, msg, false)
	if err != nil || resp.ErrCode != errCodeNone {
		return c.search(ctx, refined, threshold, opts, false, 0)
	}
	return result(resp, false), nil
}

func (c *Client) search(ctx context.Context, k keyword.Set, threshold int, opts SearchOptions, cumulative bool, sessionID uint64) (Result, error) {
	if k.IsEmpty() {
		return Result{}, ErrEmptyQuery
	}
	v := c.hasher.Vertex(k)
	msg, err := c.request(ctx, ClassSuperset, v, k.Key(), threshold, opts)
	if err != nil {
		return Result{}, err
	}
	msg.Cumulative, msg.SessionID = cumulative, sessionID
	// Only one-shot searches may be spread to soft replicas: cumulative
	// sessions have root affinity, and continuations must return to
	// whichever server holds the session. A NoCache search is not
	// spread either: a replica answers only from its cache or the
	// owner's, so it could only forward.
	oneShot := !cumulative && sessionID == 0
	resp, viaSoft, err := c.ask(ctx, v, msg, oneShot && !msg.NoCache)
	if err != nil {
		return Result{}, fmt.Errorf("superset search %v: %w", k, err)
	}
	if resp.ErrCode == errCodeNoSession {
		return Result{}, ErrNoSuchSession
	}
	if oneShot && !viaSoft {
		// Owner-path responses are the authority on the replica set:
		// advertise ⇒ (re)learn it, silence ⇒ the root was demoted.
		c.noteSoftAddrs(v, resp.SoftAddrs)
	}
	return result(resp, viaSoft), nil
}

// Cursor pages through a cumulative superset search (Section 2.2's
// "browse step by step" mode): consecutive Next calls return disjoint
// result pages, with the traversal frontier retained at the root.
type Cursor struct {
	client    *Client
	query     keyword.Set
	opts      SearchOptions
	sessionID uint64
	exhausted bool
}

// CumulativeSearch starts a cumulative search and returns its cursor.
// No traffic happens until the first Next call.
func (c *Client) CumulativeSearch(k keyword.Set, opts SearchOptions) (*Cursor, error) {
	if k.IsEmpty() {
		return nil, ErrEmptyQuery
	}
	return &Cursor{client: c, query: k, opts: opts.withDefaults()}, nil
}

// Next returns the next page of up to pageSize matches. After the
// subhypercube is exhausted it returns ErrExhausted.
func (cur *Cursor) Next(ctx context.Context, pageSize int) ([]Match, Stats, error) {
	if cur.exhausted {
		return nil, Stats{}, ErrExhausted
	}
	res, err := cur.client.search(ctx, cur.query, pageSize, cur.opts, true, cur.sessionID)
	if err != nil {
		return nil, Stats{}, err
	}
	cur.sessionID = res.SessionID
	if res.Exhausted {
		cur.exhausted = true
	}
	return res.Matches, res.Stats, nil
}

// Exhausted reports whether the traversal has covered the whole
// subhypercube.
func (cur *Cursor) Exhausted() bool { return cur.exhausted }
