package chord

import (
	"context"

	"github.com/p2pkeyword/keysearch/internal/dht"
)

// StabilizeOnce runs one round of Chord's stabilize protocol: verify
// the immediate successor (adopting its predecessor if that node sits
// between us), refresh the successor list from it, and notify it of
// our existence. If the successor is unreachable it is dropped and the
// next successor-list entry takes over, which is Chord's fault
// tolerance mechanism.
func (n *Node) StabilizeOnce(ctx context.Context) error {
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return dht.ErrNotJoined
	}
	succs := make([]NodeInfo, len(n.successors))
	copy(succs, n.successors)
	n.mu.Unlock()
	n.met.stabilizes.Inc()

	for len(succs) > 0 {
		succ := succs[0]
		if succ.ID == n.self.ID {
			// We are our own successor. If a predecessor has announced
			// itself (second node of a ring), adopt it as successor so
			// the two-node cycle forms; otherwise this is a singleton.
			n.mu.Lock()
			pred := n.predecessor
			n.mu.Unlock()
			if pred.zero() || pred.ID == n.self.ID {
				n.adoptSuccessorList(succ, nil)
				return nil
			}
			succ = pred
		}
		resp, err := n.call(ctx, succ.Addr, rpcGetPredecessor{})
		if err != nil {
			// Successor failed: promote the next candidate.
			succs = succs[1:]
			n.mu.Lock()
			if len(n.successors) > 0 && n.successors[0].Addr == succ.Addr {
				n.successors = n.successors[1:]
				if len(n.successors) == 0 {
					n.successors = []NodeInfo{n.self}
				}
			}
			n.mu.Unlock()
			continue
		}
		if gp, ok := resp.(respGetPredecessor); ok && gp.Known &&
			dht.BetweenOpen(gp.Node.ID, n.self.ID, succ.ID) && gp.Node.ID != n.self.ID {
			// A node sits between us and our successor; adopt it if
			// it is alive, otherwise keep the current successor.
			if _, err := n.call(ctx, gp.Node.Addr, rpcPing{}); err == nil {
				succ = gp.Node
			}
		}
		// Refresh the successor list through the (possibly new) successor.
		var tail []NodeInfo
		if resp, err := n.call(ctx, succ.Addr, rpcGetSuccessorList{}); err == nil {
			if sl, ok := resp.(respGetSuccessorList); ok {
				tail = sl.Successors
			}
		}
		n.adoptSuccessorList(succ, tail)
		_, err = n.call(ctx, succ.Addr, rpcNotify{Candidate: n.self})
		return err
	}
	return nil
}

// adoptSuccessorList installs succ as the immediate successor followed
// by tail (the successor's own list), truncated to the configured
// length and with duplicates and self-entries pruned.
func (n *Node) adoptSuccessorList(succ NodeInfo, tail []NodeInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.succChangedLocked(n.headSuccessorLocked())
	list := make([]NodeInfo, 0, successorListLen)
	seen := map[dht.ID]bool{}
	add := func(ni NodeInfo) {
		if ni.zero() || seen[ni.ID] || len(list) >= successorListLen {
			return
		}
		seen[ni.ID] = true
		list = append(list, ni)
	}
	add(succ)
	for _, ni := range tail {
		if ni.ID == n.self.ID {
			continue
		}
		add(ni)
	}
	if len(list) == 0 {
		list = append(list, n.self)
	}
	n.successors = list
	n.fingers[0] = list[0]
}

// CheckPredecessorOnce clears the predecessor pointer if it no longer
// responds, so that notify can install a live one.
func (n *Node) CheckPredecessorOnce(ctx context.Context) {
	n.mu.Lock()
	pred := n.predecessor
	n.mu.Unlock()
	if pred.zero() || pred.ID == n.self.ID {
		return
	}
	if _, err := n.call(ctx, pred.Addr, rpcPing{}); err != nil {
		n.mu.Lock()
		if n.predecessor.Addr == pred.Addr {
			n.predecessor = NodeInfo{}
			n.met.predClears.Inc()
		}
		n.mu.Unlock()
	}
}

// FixFingersOnce refreshes one finger-table entry per call, cycling
// through the table (Chord's fix_fingers).
func (n *Node) FixFingersOnce(ctx context.Context) error {
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return dht.ErrNotJoined
	}
	i := n.nextFinger
	n.nextFinger = (n.nextFinger + 1) % len(n.fingers)
	n.mu.Unlock()
	n.met.fixFingers.Inc()

	start := n.self.ID + dht.ID(1)<<uint(i) // modular arithmetic wraps naturally
	info, _, err := n.FindSuccessor(ctx, start)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.fingers[i] = info
	n.mu.Unlock()
	return nil
}

// FixAllFingers refreshes the whole finger table (test and
// bootstrap helper; production code uses the incremental version).
func (n *Node) FixAllFingers(ctx context.Context) error {
	for i := 0; i < 64; i++ {
		if err := n.FixFingersOnce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Finger returns finger-table entry i (diagnostic helper).
func (n *Node) Finger(i int) NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fingers[i]
}
