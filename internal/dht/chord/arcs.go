package chord

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Reference routing. Insert, Delete and Read name a key's owner from a
// small table of learned arcs instead of an iterative lookup: the node's
// own successor list seeds (self, s0], (s0, s1], …, and every lookup that
// ends in a node's Done answer adds (that node, its answer]. A stale arc
// is safe because the owner check on the serving side refuses a key
// outside (pred, self], and a refused call changed nothing.

const (
	// maxArcs bounds the learned arc table. Arcs come from remote
	// answers, so the table must not grow with them.
	maxArcs = 64
	// maxRefFollows bounds the hints a refused reference RPC follows
	// after its retry through the iterative lookup; all but the first
	// wait 1, 2, 4 ms, for a departure to finish splicing.
	maxRefFollows = 4
)

// errNotOwner refuses a reference RPC for a key outside the serving
// node's arc (pred, self]: the sender's route is stale.
var errNotOwner = errors.New("chord: node does not own the reference key")

// arc is one learned ownership range: keys in (from, node.ID] are
// stored at node.
type arc struct {
	from dht.ID
	node NodeInfo
}

// overlaps reports whether the arcs share a key. Two ring arcs overlap
// exactly when one contains the other's end point.
func (a arc) overlaps(b arc) bool {
	return dht.Between(b.node.ID, a.from, a.node.ID) || dht.Between(a.node.ID, b.from, b.node.ID)
}

// learnArcLocked records that node owns (from, node.ID]. The new arc
// replaces every arc it overlaps; when the table is full the oldest arc
// makes room. Callers hold n.mu.
func (n *Node) learnArcLocked(from dht.ID, node NodeInfo) {
	a := arc{from: from, node: node}
	n.arcs = slices.DeleteFunc(n.arcs, a.overlaps)
	if len(n.arcs) == maxArcs {
		n.arcs = slices.Delete(n.arcs, 0, 1)
	}
	n.arcs = append(n.arcs, a)
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
	n.arcs = slices.DeleteFunc(n.arcs, func(a arc) bool { return a.node.Addr == addr })
}

// arcOwner returns the owner the arc table names for key, if any.
func (n *Node) arcOwner(key dht.ID) (NodeInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range n.arcs {
		if dht.Between(key, a.from, a.node.ID) {
			return a.node, true
		}
	}
	return NodeInfo{}, false
}

// ownsRefLocked is the serving side's owner check, the OwnedArc rule: a
// joined node stores objectID's references when the key lies in
// (pred, self], or when it knows no predecessor. Callers hold n.mu.
func (n *Node) ownsRefLocked(objectID string) bool {
	return n.joined && (n.predecessor.zero() || dht.Between(dht.HashString(objectID), n.predecessor.ID, n.self.ID))
}

// refused reports that err is a peer's errNotOwner. Remote handler
// errors cross the wire flattened to text, so past a transport the
// sentinel is recovered by message.
func refused(err error) bool {
	return errors.Is(err, errNotOwner) ||
		errors.Is(err, transport.ErrRemote) && strings.Contains(err.Error(), errNotOwner.Error())
}

// refCall delivers a reference RPC for objectID to the key's owner, as
// the arc table or else an iterative lookup names it. A send the table
// routed that fails drops the node's arcs; if it was refused, or never
// reached the node, it is retried once through the lookup. A refusal
// after that follows the refuser's hint (refusalHint), at most
// maxRefFollows times. Between a leaver's refusal and its successor's
// adoption of the leaver's arc nobody owns it, so the later hints wait
// that out.
func (n *Node) refCall(ctx context.Context, op, objectID string, body any) (any, error) {
	key := dht.HashString(objectID)
	to, fromTable := n.arcOwner(key)
	if !fromTable {
		var err error
		if to, _, err = n.FindSuccessor(ctx, key); err != nil {
			return nil, fmt.Errorf("%s %q: %w", op, objectID, err)
		}
	}
	for follows := 0; ; {
		resp, err := n.call(ctx, to.Addr, body)
		if err == nil {
			return resp, nil
		}
		isRefused := refused(err)
		if isRefused {
			n.met.refRefusals.Inc(op)
		}
		if isRefused || fromTable {
			n.mu.Lock()
			n.forgetArcsLocked(to.Addr)
			n.mu.Unlock()
		}
		var next NodeInfo
		switch {
		case fromTable && (isRefused || errors.Is(err, transport.ErrUnreachable)):
			fromTable = false
			next, _, err = n.FindSuccessor(ctx, key)
		case isRefused && follows < maxRefFollows:
			if follows > 0 {
				select {
				case <-time.After(time.Millisecond << (follows - 1)):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			follows++
			next, err = n.refusalHint(ctx, key, to)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %q at %s: %w", op, objectID, to.Addr, err)
		}
		to = next
	}
}

// refusalHint names the next node to try for key after node refused it.
// A key outside node's arc (pred, node] lies before pred: a joiner sits
// between pred and the node that routed there, whose successor pointer
// has not yet stabilized onto it. A key inside the arc, or a node with
// no predecessor, means node has left the ring: its successor took the
// arc over.
func (n *Node) refusalHint(ctx context.Context, key dht.ID, node NodeInfo) (NodeInfo, error) {
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
	return NodeInfo{}, errNotOwner
}
