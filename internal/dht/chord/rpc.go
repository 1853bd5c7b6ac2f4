package chord

import (
	"cmp"
	"context"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// ErrUnhandled is returned bare by Handler for message types that are
// not Chord RPCs, letting transport.Mux try other layers. It is the
// shared transport sentinel.
var ErrUnhandled = transport.ErrUnhandled

// RPC message types. All are registered with the transport layer by
// RegisterTypes so that both the in-memory and TCP transports can
// carry them.
type (
	// rpcFindClosest asks a node for one routing step toward ID's
	// successor (iterative Chord lookup).
	rpcFindClosest struct{ ID dht.ID }
	// respFindClosest: if Done, Node is ID's successor; otherwise Node
	// is the next node to ask (closest preceding finger).
	respFindClosest struct {
		Done bool
		Node NodeInfo
	}

	rpcGetPredecessor  struct{}
	respGetPredecessor struct {
		Known bool
		Node  NodeInfo
	}

	rpcNotify struct{ Candidate NodeInfo }
	respOK    struct{}

	rpcGetSuccessorList  struct{}
	respGetSuccessorList struct{ Successors []NodeInfo }

	rpcPing struct{}

	rpcInsertRef  struct{ Ref dht.Reference }
	respInsertRef struct{ First bool }

	rpcDeleteRef  struct{ Ref dht.Reference }
	respDeleteRef struct {
		Found     bool
		Remaining int
	}

	rpcReadRefs  struct{ ObjectID string }
	respReadRefs struct {
		Found bool
		Refs  []dht.Reference
	}

	// rpcHandoff asks the receiver to transfer references now owned by
	// the joining node NewNode.
	rpcHandoff  struct{ NewNode NodeInfo }
	respHandoff struct{ Refs []dht.Reference }

	// rpcDepart notifies the receiver that a neighbor is leaving
	// gracefully: the successor receives the leaver's references, adopts
	// its predecessor and starts pulling its index range; the
	// predecessor adopts the leaver's successor.
	rpcDepart struct {
		Leaver      NodeInfo
		Predecessor NodeInfo // set when sent to the successor
		Successor   NodeInfo // set when sent to the predecessor
		Refs        []dht.Reference
	}
)

// Repeatable implements transport.RepeatableBody for the Chord RPCs a
// second delivery of which is harmless, so they may be resent or hedged:
// routing steps, liveness probes and reference reads. Notify and the
// reference and topology mutations have no method — a second delivery
// would apply them twice.
func (rpcFindClosest) Repeatable() bool      { return true }
func (rpcGetPredecessor) Repeatable() bool   { return true }
func (rpcGetSuccessorList) Repeatable() bool { return true }
func (rpcPing) Repeatable() bool             { return true }
func (rpcReadRefs) Repeatable() bool         { return true }

// Handler processes Chord RPCs addressed to this node. Non-Chord
// message types yield the bare ErrUnhandled sentinel — nothing is
// formatted for a refusal, transport.Mux names the type if no layer
// takes the message — so callers can mux several protocol layers on one
// endpoint. Each case counts itself under a constant label, the value
// %T would print.
func (n *Node) Handler(ctx context.Context, from transport.Addr, body any) (any, error) {
	switch msg := body.(type) {
	case rpcFindClosest:
		n.met.rpcHandled.Inc("chord.rpcFindClosest")
		return n.handleFindClosest(msg), nil
	case rpcGetPredecessor:
		n.met.rpcHandled.Inc("chord.rpcGetPredecessor")
		n.mu.Lock()
		defer n.mu.Unlock()
		return respGetPredecessor{Known: !n.predecessor.zero(), Node: n.predecessor}, nil
	case rpcNotify:
		n.met.rpcHandled.Inc("chord.rpcNotify")
		n.handleNotify(msg.Candidate)
		return respOK{}, nil
	case rpcGetSuccessorList:
		n.met.rpcHandled.Inc("chord.rpcGetSuccessorList")
		return respGetSuccessorList{Successors: n.SuccessorList()}, nil
	case rpcPing:
		n.met.rpcHandled.Inc("chord.rpcPing")
		return respOK{}, nil
	case rpcInsertRef:
		n.met.rpcHandled.Inc("chord.rpcInsertRef")
		n.mu.Lock()
		defer n.mu.Unlock()
		if !n.ownsRefLocked(msg.Ref.ObjectID) {
			return nil, dht.ErrNotOwner
		}
		return respInsertRef{First: n.refs.Insert(msg.Ref)}, nil
	case rpcDeleteRef:
		n.met.rpcHandled.Inc("chord.rpcDeleteRef")
		return n.handleDeleteRef(msg.Ref)
	case rpcReadRefs:
		n.met.rpcHandled.Inc("chord.rpcReadRefs")
		return n.handleReadRefs(msg.ObjectID)
	case rpcHandoff:
		n.met.rpcHandled.Inc("chord.rpcHandoff")
		return n.handleHandoff(msg.NewNode), nil
	case rpcDepart:
		n.met.rpcHandled.Inc("chord.rpcDepart")
		n.handleDepart(msg)
		return respOK{}, nil
	default:
		return nil, ErrUnhandled
	}
}

func (n *Node) handleFindClosest(msg rpcFindClosest) respFindClosest {
	n.mu.Lock()
	defer n.mu.Unlock()
	succ := n.self
	if len(n.successors) > 0 {
		succ = n.successors[0]
	}
	if dht.Between(msg.ID, n.self.ID, succ.ID) {
		return respFindClosest{Done: true, Node: succ}
	}
	next := n.closestPrecedingLocked(msg.ID)
	if next.zero() || next.ID == n.self.ID {
		// No better route known; the successor is our best guess.
		return respFindClosest{Done: true, Node: succ}
	}
	return respFindClosest{Done: false, Node: next}
}

// closestPrecedingLocked returns the closest known node preceding id,
// scanning fingers then the successor list (Chord §4.3, extended with
// the successor list for robustness).
func (n *Node) closestPrecedingLocked(id dht.ID) NodeInfo {
	best := NodeInfo{}
	for i := len(n.fingers) - 1; i >= 0; i-- {
		f := n.fingers[i]
		if !f.zero() && dht.BetweenOpen(f.ID, n.self.ID, id) {
			best = f
			break
		}
	}
	for _, s := range n.successors {
		if !s.zero() && dht.BetweenOpen(s.ID, n.self.ID, id) {
			if best.zero() || dht.BetweenOpen(best.ID, n.self.ID, s.ID) {
				best = s
			}
		}
	}
	return best
}

func (n *Node) handleNotify(candidate NodeInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if candidate.ID == n.self.ID {
		return
	}
	if n.predecessor.zero() || n.predecessor.ID == n.self.ID ||
		dht.BetweenOpen(candidate.ID, n.predecessor.ID, n.self.ID) {
		n.predecessor = candidate
	}
}

func (n *Node) handleDeleteRef(ref dht.Reference) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.ownsRefLocked(ref.ObjectID) {
		return nil, dht.ErrNotOwner
	}
	found, remaining := n.refs.Delete(ref)
	return respDeleteRef{Found: found, Remaining: remaining}, nil
}

func (n *Node) handleReadRefs(objectID string) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.ownsRefLocked(objectID) {
		return nil, dht.ErrNotOwner
	}
	refs := n.refs.Refs(objectID)
	return respReadRefs{Found: refs != nil, Refs: refs}, nil
}

// handleHandoff transfers to the joining node every reference whose
// key it now owns: keys in (predecessor(new), newID] — from this
// node's perspective, keys not in (newID, self.ID].
func (n *Node) handleHandoff(newNode NodeInfo) respHandoff {
	n.mu.Lock()
	defer n.mu.Unlock()
	return respHandoff{Refs: n.refs.Extract(func(objectID string) bool {
		return !dht.Between(dht.HashString(objectID), newNode.ID, n.self.ID)
	})}
}

// handleDepart splices a gracefully leaving neighbor out of the ring:
// refs (sent to the successor) are absorbed, and the leaver's other
// neighbor replaces it in our pointers. The message to the successor is
// the one without a Successor; it calls the depart hook first, before
// this node takes over the leaver's arc.
func (n *Node) handleDepart(msg rpcDepart) {
	if hook := n.departHook.Load(); hook != nil && *hook != nil && msg.Successor.zero() {
		(*hook)(msg.Leaver, cmp.Or(msg.Predecessor, n.self))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.succChangedLocked(n.headSuccessorLocked())
	for _, ref := range msg.Refs {
		n.refs.Insert(ref)
	}
	if !msg.Predecessor.zero() &&
		(n.predecessor.zero() || n.predecessor.ID == msg.Leaver.ID) {
		if msg.Predecessor.ID == n.self.ID {
			n.predecessor = n.self
		} else {
			n.predecessor = msg.Predecessor
		}
	}
	if !msg.Successor.zero() && len(n.successors) > 0 && n.successors[0].ID == msg.Leaver.ID {
		if msg.Successor.ID == n.self.ID {
			n.successors = []NodeInfo{n.self}
		} else {
			n.successors[0] = msg.Successor
		}
		n.fingers[0] = n.successors[0]
	}
	// Purge the leaver from fingers, the successor list and the arc
	// table so routing stops trying it.
	n.purgeDeadLocked(msg.Leaver)
}

// RefCount returns the number of distinct objects whose references
// this node stores (test/diagnostic helper).
func (n *Node) RefCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.refs.Objects()
}
