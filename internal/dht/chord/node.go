// Package chord is a from-scratch implementation of the Chord
// distributed hash table (Stoica et al., SIGCOMM 2001) providing the
// generalized DOLR substrate of Section 2.1 of the keyword-search
// paper: deterministic key→node mapping with surrogate routing
// (successor-of-ID), finger-table routing, successor lists for fault
// tolerance, and reference storage with handoff on join.
package chord

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// NodeInfo identifies a ring member.
type NodeInfo struct {
	ID   dht.ID
	Addr transport.Addr
}

// zero reports whether the info is unset.
func (ni NodeInfo) zero() bool { return ni.Addr == "" }

// Config tunes a Chord node.
type Config struct {
	// Telemetry receives routing and maintenance metrics. Nil disables
	// the instrumentation at zero cost. Nodes sharing a registry sum
	// their chord_refs gauge deployment-wide.
	Telemetry *telemetry.Registry
}

const (
	// successorListLen is the number of successors kept for fault
	// tolerance (Chord's r parameter).
	successorListLen = 4
	// maxLookupSteps bounds iterative lookups.
	maxLookupSteps = 256
	// rpcTimeout bounds each remote call.
	rpcTimeout = 2 * time.Second
)

// Node is one Chord ring member. Create it with New, then call Create
// (first node) or Join (subsequent nodes). Node implements dht.Overlay.
type Node struct {
	self NodeInfo
	net  transport.Sender

	mu          sync.Mutex
	joined      bool
	predecessor NodeInfo
	successors  []NodeInfo // successors[0] is the immediate successor
	fingers     [64]NodeInfo
	nextFinger  int
	refs        dht.RefStore
	arcs        []arc       // learned owners, sorted by end, at most maxArcs; replaced, never written
	arcFirst    *[256]uint8 // arcs indexed by a key's top byte (firstEnds)
	arcSeq      uint64
	succHook    func(NodeInfo)
	departHook  atomic.Pointer[func(leaver, pred NodeInfo)]

	maintStop chan struct{}
	maintDone chan struct{}

	met nodeMetrics
}

// nodeMetrics holds the node's pre-resolved instruments. Every field
// is nil when Config.Telemetry is nil; all methods on nil instruments
// are no-ops, so instrumented paths need no conditionals.
type nodeMetrics struct {
	lookups        *telemetry.Counter    // chord_lookups_total
	lookupFailures *telemetry.Counter    // chord_lookup_failures_total
	lookupHops     *telemetry.Histogram  // chord_lookup_hops
	stabilizes     *telemetry.Counter    // chord_stabilize_runs_total
	fixFingers     *telemetry.Counter    // chord_fix_fingers_runs_total
	predClears     *telemetry.Counter    // chord_predecessor_clears_total
	joins          *telemetry.Counter    // chord_joins_total
	leaves         *telemetry.Counter    // chord_leaves_total
	rpcHandled     *telemetry.CounterVec // chord_rpc_handled_total{type}
	refRefusals    *telemetry.CounterVec // chord_ref_refusals_total{op}
}

func newNodeMetrics(reg *telemetry.Registry) nodeMetrics {
	return nodeMetrics{
		lookups:        reg.Counter("chord_lookups_total"),
		lookupFailures: reg.Counter("chord_lookup_failures_total"),
		lookupHops:     reg.Histogram("chord_lookup_hops", telemetry.LinearBuckets(1, 1, 12)),
		stabilizes:     reg.Counter("chord_stabilize_runs_total"),
		fixFingers:     reg.Counter("chord_fix_fingers_runs_total"),
		predClears:     reg.Counter("chord_predecessor_clears_total"),
		joins:          reg.Counter("chord_joins_total"),
		leaves:         reg.Counter("chord_leaves_total"),
		rpcHandled:     reg.CounterVec("chord_rpc_handled_total", "type"),
		refRefusals:    reg.CounterVec("chord_ref_refusals_total", "op"),
	}
}

var _ dht.Overlay = (*Node)(nil)

// New constructs a node identified by hashing addr into the ID space.
// The node's RPC handler must be reachable at addr; wire it with
// Handler (typically through a transport mux shared with the index
// layer).
func New(addr transport.Addr, net transport.Sender, cfg Config) *Node {
	n := &Node{
		self: NodeInfo{ID: dht.HashString(string(addr)), Addr: addr},
		net:  net,
		met:  newNodeMetrics(cfg.Telemetry),
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.GaugeFunc("chord_refs", func() int64 { return int64(n.RefCount()) })
	}
	return n
}

// OnSuccessorChange registers fn to be invoked each time the node's
// immediate successor changes to a different live node — at join, when
// stabilization discovers a closer successor, or when a departing
// neighbor is spliced out. The hook runs on its own goroutine outside
// the node's lock, so it may call back into the node; duplicate
// invocations for the same successor must be tolerated. One hook at a
// time; nil unregisters.
func (n *Node) OnSuccessorChange(fn func(succ NodeInfo)) {
	n.mu.Lock()
	n.succHook = fn
	n.mu.Unlock()
}

// OnDepart registers fn to be invoked on the successor of a gracefully
// departing node just before it splices the leaver out: once fn
// returns, this node owns the leaver's arc (pred, leaver]. pred is the
// leaver's predecessor, or this node itself when the leaver knew none —
// the arc is then (self, leaver]. fn runs synchronously on the depart
// handler, outside the node's lock, so it may call back into the node
// (which still reports the arc it owned before the leave) but should
// return promptly: the leaver waits for the reply. One hook at a time;
// nil unregisters.
func (n *Node) OnDepart(fn func(leaver, pred NodeInfo)) {
	n.departHook.Store(&fn)
}

// succChangedLocked fires the successor-change hook when the list head
// moved away from old to a different node. Called with n.mu held; the
// hook itself runs asynchronously so it can re-enter the node.
func (n *Node) succChangedLocked(old NodeInfo) {
	if n.succHook == nil || len(n.successors) == 0 {
		return
	}
	head := n.successors[0]
	if head.zero() || head.ID == old.ID || head.ID == n.self.ID {
		return
	}
	hook := n.succHook
	go hook(head)
}

// headSuccessorLocked returns the current immediate successor (zero
// value when the list is empty). Called with n.mu held.
func (n *Node) headSuccessorLocked() NodeInfo {
	if len(n.successors) == 0 {
		return NodeInfo{}
	}
	return n.successors[0]
}

// Info returns this node's identity.
func (n *Node) Info() NodeInfo { return n.self }

// ID returns this node's ring identifier.
func (n *Node) ID() dht.ID { return n.self.ID }

// Addr returns this node's transport address.
func (n *Node) Addr() transport.Addr { return n.self.Addr }

// Create starts a new single-node ring.
func (n *Node) Create() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.joined = true
	n.predecessor = n.self
	n.successors = []NodeInfo{n.self}
	for i := range n.fingers {
		n.fingers[i] = n.self
	}
}

// Join adds this node to the ring containing the node at seed. It
// locates its successor, installs it, and asks it to hand over the
// references this node is now responsible for.
func (n *Node) Join(ctx context.Context, seed transport.Addr) error {
	n.mu.Lock()
	if n.joined {
		n.mu.Unlock()
		return fmt.Errorf("chord: node %s already joined", n.self.Addr)
	}
	n.mu.Unlock()

	succ, _, err := n.findSuccessorVia(ctx, seed, n.self.ID)
	if err != nil {
		return fmt.Errorf("join via %s: %w", seed, err)
	}
	n.mu.Lock()
	n.joined = true
	n.predecessor = NodeInfo{}
	n.successors = []NodeInfo{succ}
	for i := range n.fingers {
		n.fingers[i] = succ
	}
	n.mu.Unlock()

	// Take over the key range (predecessor(succ), n.ID] from the
	// successor. Best effort: stabilization converges regardless.
	resp, err := n.call(ctx, succ.Addr, rpcHandoff{NewNode: n.self})
	if err == nil {
		if h, ok := resp.(respHandoff); ok {
			n.mu.Lock()
			for _, ref := range h.Refs {
				n.refs.Insert(ref)
			}
			n.mu.Unlock()
		}
	}
	n.met.joins.Inc()
	// Announce ourselves so the ring converges quickly even before the
	// first maintenance tick.
	return n.StabilizeOnce(ctx)
}

// OwnedArc snapshots the ring arc (pred, self] this node is responsible
// for, so a caller with many keys to test takes the node's lock once and
// runs dht.Between on each: the node owns key when joined &&
// dht.Between(key, pred, self). A node that has not joined owns nothing.
// An unknown predecessor reads pred == self — Between's whole-ring
// interval: the node answers optimistically (stabilization will correct
// ownership).
func (n *Node) OwnedArc() (pred, self dht.ID, joined bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.predecessor.zero() {
		return n.self.ID, n.self.ID, n.joined
	}
	return n.predecessor.ID, n.self.ID, n.joined
}

// Successor returns the current immediate successor.
func (n *Node) Successor() NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.successors) == 0 {
		return n.self
	}
	return n.successors[0]
}

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.predecessor
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeInfo, len(n.successors))
	copy(out, n.successors)
	return out
}

// StartMaintenance launches the periodic stabilize / fix-fingers /
// check-predecessor loop. Call StopMaintenance (or Shutdown) to stop
// it; the loop owns no other resources.
func (n *Node) StartMaintenance(interval time.Duration) {
	n.mu.Lock()
	if n.maintStop != nil {
		n.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	n.maintStop = stop
	n.maintDone = done
	n.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
				_ = n.MaintainOnce(ctx)
				cancel()
			case <-stop:
				return
			}
		}
	}()
}

// StopMaintenance stops the maintenance loop and waits for it to exit.
func (n *Node) StopMaintenance() {
	n.mu.Lock()
	stop, done := n.maintStop, n.maintDone
	n.maintStop, n.maintDone = nil, nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Shutdown stops maintenance and marks the node as left. It does not
// transfer keys (crash-stop model); the ring heals via successor lists.
func (n *Node) Shutdown() {
	n.StopMaintenance()
	n.mu.Lock()
	n.joined = false
	n.mu.Unlock()
}

// Leave departs the ring gracefully: it hands every stored reference
// to the successor and tells both neighbors to splice this node out,
// then shuts down. It returns the successor that accepted the departure
// — the node that now owns this node's arc — or the zero NodeInfo when
// none did (a singleton ring, or the depart to the successor failed,
// which err then reports). Best effort — unreachable neighbors degrade
// to the crash-stop path, which stabilization heals.
func (n *Node) Leave(ctx context.Context) (NodeInfo, error) {
	n.StopMaintenance()
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return NodeInfo{}, dht.ErrNotJoined
	}
	n.joined = false
	n.met.leaves.Inc()
	var succ NodeInfo
	if len(n.successors) > 0 {
		succ = n.successors[0]
	}
	pred := n.predecessor
	refs := n.refs.Extract(func(string) bool { return true })
	n.mu.Unlock()

	if succ.zero() || succ.ID == n.self.ID {
		return NodeInfo{}, nil // singleton ring: nothing to hand off
	}
	if _, err := n.call(ctx, succ.Addr, rpcDepart{
		Leaver:      n.self,
		Predecessor: pred,
		Refs:        refs,
	}); err != nil {
		return NodeInfo{}, fmt.Errorf("depart to successor %s: %w", succ.Addr, err)
	}
	if !pred.zero() && pred.ID != n.self.ID {
		if _, err := n.call(ctx, pred.Addr, rpcDepart{
			Leaver:    n.self,
			Successor: succ,
		}); err != nil {
			return succ, fmt.Errorf("depart to predecessor %s: %w", pred.Addr, err)
		}
	}
	return succ, nil
}

// MaintainOnce runs one round of stabilize, fix-fingers and
// check-predecessor. The experiment harness calls this directly for
// deterministic convergence instead of running the background loop.
func (n *Node) MaintainOnce(ctx context.Context) error {
	if err := n.StabilizeOnce(ctx); err != nil {
		return err
	}
	n.CheckPredecessorOnce(ctx)
	return n.FixFingersOnce(ctx)
}

func (n *Node) call(ctx context.Context, to transport.Addr, body any) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	return n.net.Send(ctx, to, body)
}
