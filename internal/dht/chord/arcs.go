package chord

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Routing. One rule names the owner of any ring key — a reference key
// L(σ) for Insert, Delete and Read, and a hypercube vertex's key for the
// index layer (core.OverlayResolver) — and delivers to it:
//   - A key in the node's own arc (pred, self] is the node's. Otherwise a
//     small table of learned arcs names the owner, and failing that one
//     iterative lookup does. The successor list seeds the table with
//     (self, s0], (s0, s1], …, and every lookup that ends in a node's
//     Done answer adds (that node, its answer].
//   - A send that is refused, or never reaches its node, drops the node
//     from the routing state: a refuser's arcs, or an unreachable node's
//     arcs, fingers and successor-list entries. The key is then routed
//     again — after the first failure, and after the first unreachable
//     node — so that send goes elsewhere, unless a lookup names the same
//     node again. A send in doubt (transport.ErrInDoubt: its node may
//     have handled it) drops the node too, but is not sent again.
//   - Any other refusal follows the refuser's hint (refusalHint), or when
//     the refuser cannot give one is routed again; maxSends bounds the
//     sends in all.
// A stale route is safe because the serving side refuses a key outside
// its arc (pred, self] with dht.ErrNotOwner, and a refused call changed
// nothing.

const (
	// maxArcs bounds the learned arc table. Arcs come from remote
	// answers, so the table must not grow with them.
	maxArcs = 64
	// maxSends bounds the sends of one routed call: the first and six
	// more, of which the refusal hints after the first wait 1, 2, 4 and
	// 8 ms. Between a leaver's refusal and its successor's
	// adoption of the leaver's arc nobody owns it, so the later hints
	// wait that out.
	maxSends = 7
)

// Send delivers one message to the node at to; a Router calls it once
// per send of a routed call.
type Send func(ctx context.Context, to transport.Addr) (any, error)

// Router routes ring keys by the one rule above, over a Chord node's
// routing state or, for any other overlay, its Lookup alone, which then
// names every owner and every hint.
type Router struct{ st routeState }

// NewRouter returns the routing rule over overlay.
func NewRouter(overlay dht.Overlay) Router {
	if n, ok := overlay.(*Node); ok {
		return Router{n}
	}
	return Router{&lookupRouter{overlay}}
}

// routeState is what the rule reads and updates: a Chord node, or an
// overlay that only looks keys up.
type routeState interface {
	// view is what is known without a message.
	view() arcView
	lookup(ctx context.Context, key dht.ID) (NodeInfo, error)
	// refusalHint names the next node to try for key after node refused
	// it.
	refusalHint(ctx context.Context, key dht.ID, node NodeInfo) (NodeInfo, error)
	// drop forgets node's arcs, and with unreachable the node itself.
	drop(node NodeInfo, unreachable bool)
}

// Route delivers through send to key's owner — first to at when it is
// set (an owner named earlier, by Owners), else to the owner the route
// names — and returns the reply and the number of sends made. A send
// failing otherwise than by a refusal or an unreachable node is
// returned as it is.
func (r Router) Route(ctx context.Context, key dht.ID, at transport.Addr, send Send) (any, int, error) {
	to, err := NodeInfo{Addr: at}, error(nil)
	if at == "" {
		to, err = r.owner(ctx, key)
	}
	sends, purged := 0, false
	for err == nil {
		sends++
		var resp any
		if resp, err = send(ctx, to.Addr); err == nil {
			return resp, sends, nil
		}
		refused := dht.Refused(err)
		unreachable := !refused && errors.Is(err, transport.ErrUnreachable)
		if !refused && !unreachable || sends == maxSends {
			return nil, sends, err
		}
		r.st.drop(to, unreachable)
		switch {
		case errors.Is(err, transport.ErrInDoubt):
			return nil, sends, err
		case sends == 1 || unreachable && !purged:
			purged = purged || unreachable
			to, err = r.owner(ctx, key)
		case refused:
			if sends > 2 {
				select {
				case <-time.After(time.Millisecond << (sends - 3)):
				case <-ctx.Done():
					return nil, sends, ctx.Err()
				}
			}
			refuser := to
			if to, err = r.st.refusalHint(ctx, key, refuser); err != nil {
				// The refuser left before it could say: route from
				// what is known.
				r.st.drop(refuser, errors.Is(err, transport.ErrUnreachable))
				to, err = r.owner(ctx, key)
			}
		default:
			return nil, sends, err
		}
	}
	return nil, sends, err
}

// owner names key's owner from the view, or else by a lookup.
func (r Router) owner(ctx context.Context, key dht.ID) (NodeInfo, error) {
	v := r.st.view()
	if to, ok := v.owner(key); ok {
		return to, nil
	}
	return r.st.lookup(ctx, key)
}

// Owners names the owner of each key(i), i < len(addrs), into addrs[i].
// It reads the routing state once, and again only after a lookup, which
// teaches the arc its answer implies: keys are looked up once per arc
// the state does not know. errs is nil when every key was named, and
// otherwise positionally aligned with addrs.
func (r Router) Owners(ctx context.Context, key func(i int) dht.ID, addrs []transport.Addr) (errs []error) {
	v, fresh := r.st.view(), true
	for i := range addrs {
		k := key(i)
		to, ok := v.owner(k)
		if !ok && !fresh {
			v, fresh = r.st.view(), true
			to, ok = v.owner(k)
		}
		if !ok {
			var err error
			if to, err = r.st.lookup(ctx, k); err != nil {
				if errs == nil {
					errs = make([]error, len(addrs))
				}
				errs[i] = fmt.Errorf("lookup %d: %w", k, err)
			}
			fresh = false
		}
		addrs[i] = to.Addr
	}
	return errs
}

// arc is one learned ownership range: keys in (from, node.ID] are
// stored at node.
type arc struct {
	from dht.ID
	node NodeInfo
	seq  uint64 // learning order: the smallest is evicted first
}

// overlaps reports whether the arcs share a key. Two ring arcs overlap
// exactly when one contains the other's end point.
func (a arc) overlaps(b arc) bool {
	return dht.Between(b.node.ID, a.from, a.node.ID) || dht.Between(a.node.ID, b.from, b.node.ID)
}

// arcView is one reading of what routes a key without a message: the
// node's own arc, when its predecessor is known, and the learned arcs.
type arcView struct {
	own   arc   // zero node: unknown
	arcs  []arc // sorted by end point; never written once published
	first *[256]uint8
}

// owner returns the node the view names for key, if any. The learned
// arcs do not overlap, so the only one that can hold key is the first
// ending at or after it — or, past the last end, the one that wraps.
// The search starts at the first arc ending in or after key's top-byte
// bucket: keys are uniform, so it seldom steps more than once.
func (v *arcView) owner(key dht.ID) (NodeInfo, bool) {
	if !v.own.node.zero() && dht.Between(key, v.own.from, v.own.node.ID) {
		return v.own.node, true
	}
	if len(v.arcs) == 0 {
		return NodeInfo{}, false
	}
	i := int(v.first[key>>56])
	for i < len(v.arcs) && v.arcs[i].node.ID < key {
		i++
	}
	a := v.arcs[i%len(v.arcs)]
	return a.node, dht.Between(key, a.from, a.node.ID)
}

// view reads the routing state under one lock acquisition.
func (n *Node) view() arcView {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := arcView{arcs: n.arcs, first: n.arcFirst}
	if n.joined && !n.predecessor.zero() {
		v.own = arc{from: n.predecessor.ID, node: n.self}
	}
	return v
}

// arcOwner returns the owner the routing state names for key, if any.
func (n *Node) arcOwner(key dht.ID) (NodeInfo, bool) {
	v := n.view()
	return v.owner(key)
}

func (n *Node) lookup(ctx context.Context, key dht.ID) (NodeInfo, error) {
	to, _, err := n.FindSuccessor(ctx, key)
	return to, err
}

func (n *Node) drop(node NodeInfo, unreachable bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if unreachable && node.Addr != n.self.Addr {
		n.purgeDeadLocked(node)
	} else {
		n.forgetArcsLocked(node.Addr)
	}
}

// learnArcLocked records that node owns (from, node.ID]. The new arc
// replaces every arc it overlaps; when the table is full the oldest arc
// makes room. The table is replaced, never written, so a view read
// earlier stays whole. Callers hold n.mu.
func (n *Node) learnArcLocked(from dht.ID, node NodeInfo) {
	n.arcSeq++
	a := arc{from: from, node: node, seq: n.arcSeq}
	arcs := slices.DeleteFunc(slices.Clone(n.arcs), a.overlaps)
	if len(arcs) == maxArcs {
		old := slices.MinFunc(arcs, func(x, y arc) int { return cmp.Compare(x.seq, y.seq) })
		arcs = slices.DeleteFunc(arcs, func(x arc) bool { return x == old })
	}
	i, _ := slices.BinarySearchFunc(arcs, a, func(x, y arc) int { return cmp.Compare(x.node.ID, y.node.ID) })
	n.arcs = slices.Insert(arcs, i, a)
	n.arcFirst = firstEnds(n.arcs)
}

// firstEnds indexes arcs sorted by end by a key's top byte: first[b] is
// the index of the first arc ending at or after b<<56.
func firstEnds(arcs []arc) *[256]uint8 {
	first := new([256]uint8)
	for b := range first {
		first[b] = uint8(sort.Search(len(arcs), func(i int) bool { return arcs[i].node.ID >= dht.ID(b)<<56 }))
	}
	return first
}

// learnAnswer records the arc (from, answer] that a Done lookup answer
// from the node at from implies, when id lies in it: an answer outside
// it is that node's best guess, not its successor.
func (n *Node) learnAnswer(from, id dht.ID, answer NodeInfo) {
	if dht.Between(id, from, answer.ID) {
		n.mu.Lock()
		n.learnArcLocked(from, answer)
		n.mu.Unlock()
	}
}

// seedArcsLocked learns the arcs the successor list spells out:
// (self, s0], (s0, s1], …. Callers hold n.mu.
func (n *Node) seedArcsLocked() {
	from := n.self.ID
	for _, s := range n.successors {
		n.learnArcLocked(from, s)
		from = s.ID
	}
}

// forgetArcsLocked drops every arc whose owner is at addr. Callers hold
// n.mu.
func (n *Node) forgetArcsLocked(addr transport.Addr) {
	n.arcs = slices.DeleteFunc(slices.Clone(n.arcs), func(a arc) bool { return a.node.Addr == addr })
	n.arcFirst = firstEnds(n.arcs)
}

// ownsRefLocked is the serving side's owner check, the OwnedArc rule: a
// joined node stores objectID's references when the key lies in
// (pred, self], or when it knows no predecessor. Callers hold n.mu.
func (n *Node) ownsRefLocked(objectID string) bool {
	return n.joined && (n.predecessor.zero() || dht.Between(dht.HashString(objectID), n.predecessor.ID, n.self.ID))
}

// refCall delivers a reference RPC for objectID to the key's owner by
// the routing rule, counting each refusal under op.
func (n *Node) refCall(ctx context.Context, op, objectID string, body any) (any, error) {
	resp, _, err := Router{n}.Route(ctx, dht.HashString(objectID), "", func(ctx context.Context, to transport.Addr) (any, error) {
		resp, err := n.call(ctx, to, body)
		if dht.Refused(err) {
			n.met.refRefusals.Inc(op)
		}
		return resp, err
	})
	if err != nil {
		return nil, fmt.Errorf("%s %q: %w", op, objectID, err)
	}
	return resp, nil
}

// refusalHint names the next node to try for key after node refused it.
// A key outside node's arc (pred, node] lies before pred: a joiner sits
// between pred and the node that routed there, whose successor pointer
// has not yet stabilized onto it. A key inside the arc, or a node with
// no predecessor, means node has left the ring: its successor took the
// arc over.
func (n *Node) refusalHint(ctx context.Context, key dht.ID, node NodeInfo) (NodeInfo, error) {
	node.ID = dht.HashString(string(node.Addr)) // as New derives it: a route named only the address
	resp, err := n.call(ctx, node.Addr, rpcGetPredecessor{})
	if err != nil {
		return NodeInfo{}, err
	}
	if gp, _ := resp.(respGetPredecessor); gp.Known && !dht.Between(key, gp.Node.ID, node.ID) {
		return gp.Node, nil
	}
	if resp, err = n.call(ctx, node.Addr, rpcGetSuccessorList{}); err != nil {
		return NodeInfo{}, err
	}
	if sl, _ := resp.(respGetSuccessorList); len(sl.Successors) > 0 {
		return sl.Successors[0], nil
	}
	return NodeInfo{}, dht.ErrNotOwner
}

// lookupRouter is the rule over an overlay that only looks keys up: it
// knows no arc, and a fresh lookup is its only hint.
type lookupRouter struct{ overlay dht.Overlay }

func (*lookupRouter) view() arcView { return arcView{} }

func (r *lookupRouter) lookup(ctx context.Context, key dht.ID) (NodeInfo, error) {
	addr, _, err := r.overlay.Lookup(ctx, key)
	return NodeInfo{Addr: addr}, err
}

func (r *lookupRouter) refusalHint(ctx context.Context, key dht.ID, _ NodeInfo) (NodeInfo, error) {
	return r.lookup(ctx, key)
}

func (*lookupRouter) drop(NodeInfo, bool) {}
