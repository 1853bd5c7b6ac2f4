package chord

import (
	"context"
	"errors"
	"fmt"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Lookup implements dht.Overlay: it returns the address of the live
// node acting as surrogate for id (the successor of id on the ring)
// and the number of routing steps taken.
func (n *Node) Lookup(ctx context.Context, id dht.ID) (transport.Addr, int, error) {
	info, hops, err := n.FindSuccessor(ctx, id)
	if err != nil {
		return "", hops, err
	}
	return info.Addr, hops, nil
}

// FindSuccessor resolves the successor of id using iterative routing
// from this node, following closest-preceding-finger steps.
func (n *Node) FindSuccessor(ctx context.Context, id dht.ID) (NodeInfo, int, error) {
	n.mu.Lock()
	joined := n.joined
	n.mu.Unlock()
	if !joined {
		return NodeInfo{}, 0, dht.ErrNotJoined
	}
	n.met.lookups.Inc()

	// Local short-circuit: id in (self, successor].
	local := n.handleFindClosest(rpcFindClosest{ID: id})
	if local.Done {
		n.met.lookupHops.Observe(0)
		return local.Node, 0, nil
	}
	info, hops, err := n.iterate(ctx, local.Node, id, 1)
	if err != nil {
		n.met.lookupFailures.Inc()
	} else {
		n.met.lookupHops.Observe(int64(hops))
	}
	return info, hops, err
}

// findSuccessorVia resolves id's successor by asking the node at seed
// first (used by Join before this node is part of the ring).
func (n *Node) findSuccessorVia(ctx context.Context, seed transport.Addr, id dht.ID) (NodeInfo, int, error) {
	return n.iterate(ctx, NodeInfo{Addr: seed}, id, 0)
}

// iterate performs the iterative lookup loop starting at 'next'. Each
// step asks the current node for either the answer or a closer node.
// When a step's node is unreachable it is purged from this node's
// routing state and the lookup restarts from local routing (up to a
// few times), so stale fingers pointing at departed nodes heal
// in-band instead of wedging lookups until the next fix-fingers pass.
func (n *Node) iterate(ctx context.Context, next NodeInfo, id dht.ID, hops int) (NodeInfo, int, error) {
	prev := NodeInfo{}
	deadRetries := 0
	for step := 0; step < maxLookupSteps; step++ {
		resp, err := n.call(ctx, next.Addr, rpcFindClosest{ID: id})
		if err != nil {
			n.mu.Lock()
			joined := n.joined
			if joined {
				n.purgeDeadLocked(next)
			}
			n.mu.Unlock()
			deadRetries++
			if !joined || deadRetries > 3 {
				return NodeInfo{}, hops, fmt.Errorf("lookup step via %s: %w", next.Addr, err)
			}
			local := n.handleFindClosest(rpcFindClosest{ID: id})
			if local.Done {
				return local.Node, hops, nil
			}
			prev, next = NodeInfo{}, local.Node
			continue
		}
		fc, ok := resp.(respFindClosest)
		if !ok {
			return NodeInfo{}, hops, fmt.Errorf("lookup step via %s: unexpected response %T", next.Addr, resp)
		}
		hops++
		if fc.Done {
			return fc.Node, hops, nil
		}
		if fc.Node.zero() || (prev.Addr != "" && fc.Node.Addr == prev.Addr) {
			// Routing is not making progress; accept the best known.
			return fc.Node, hops, errors.New("chord: lookup made no progress")
		}
		prev, next = next, fc.Node
	}
	return NodeInfo{}, hops, fmt.Errorf("chord: lookup for %d exceeded %d steps", id, maxLookupSteps)
}

// purgeDeadLocked drops an unreachable node from the finger table and
// successor list so subsequent routing avoids it. Callers hold n.mu.
func (n *Node) purgeDeadLocked(dead NodeInfo) {
	for i := range n.fingers {
		if n.fingers[i].Addr == dead.Addr {
			n.fingers[i] = NodeInfo{}
		}
	}
	keep := n.successors[:0]
	for _, s := range n.successors {
		if s.Addr != dead.Addr {
			keep = append(keep, s)
		}
	}
	if len(keep) == 0 {
		keep = append(keep, n.self)
	}
	n.successors = keep
}

// Insert implements dht.Overlay: route to the node responsible for
// L(ref.ObjectID) and store the reference there. first reports whether
// this was the object's first reference.
func (n *Node) Insert(ctx context.Context, ref dht.Reference) (bool, error) {
	addr, _, err := n.Lookup(ctx, dht.HashString(ref.ObjectID))
	if err != nil {
		return false, fmt.Errorf("insert %q: %w", ref.ObjectID, err)
	}
	raw, err := n.call(ctx, addr, rpcInsertRef{Ref: ref})
	if err != nil {
		return false, fmt.Errorf("insert %q at %s: %w", ref.ObjectID, addr, err)
	}
	ir, ok := raw.(respInsertRef)
	if !ok {
		return false, fmt.Errorf("insert %q: unexpected response %T", ref.ObjectID, raw)
	}
	return ir.First, nil
}

// Delete implements dht.Overlay: remove the reference from the
// responsible node, reporting how many replicas remain.
func (n *Node) Delete(ctx context.Context, ref dht.Reference) (int, error) {
	addr, _, err := n.Lookup(ctx, dht.HashString(ref.ObjectID))
	if err != nil {
		return 0, fmt.Errorf("delete %q: %w", ref.ObjectID, err)
	}
	resp, err := n.call(ctx, addr, rpcDeleteRef{Ref: ref})
	if err != nil {
		return 0, fmt.Errorf("delete %q at %s: %w", ref.ObjectID, addr, err)
	}
	dr, ok := resp.(respDeleteRef)
	if !ok {
		return 0, fmt.Errorf("delete %q: unexpected response %T", ref.ObjectID, resp)
	}
	if !dr.Found {
		return dr.Remaining, dht.ErrNoSuchReference
	}
	return dr.Remaining, nil
}

// Read implements dht.Overlay: fetch all references for objectID from
// the responsible node.
func (n *Node) Read(ctx context.Context, objectID string) ([]dht.Reference, error) {
	addr, _, err := n.Lookup(ctx, dht.HashString(objectID))
	if err != nil {
		return nil, fmt.Errorf("read %q: %w", objectID, err)
	}
	resp, err := n.call(ctx, addr, rpcReadRefs{ObjectID: objectID})
	if err != nil {
		return nil, fmt.Errorf("read %q at %s: %w", objectID, addr, err)
	}
	rr, ok := resp.(respReadRefs)
	if !ok {
		return nil, fmt.Errorf("read %q: unexpected response %T", objectID, resp)
	}
	if !rr.Found {
		return nil, dht.ErrNoSuchObject
	}
	return rr.Refs, nil
}
