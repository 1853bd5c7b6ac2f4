package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/dht/chord"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Resolver implements the mapping g of Section 3.2: it names the
// physical DHT node responsible for a logical hypercube vertex of one
// index instance, and delivers to it. The instance name salts the
// mapping so independent instances (replicas, decomposed families)
// spread differently over the same nodes.
type Resolver interface {
	// Owners names the owner of each vertex of a wave into the caller's
	// addrs, which has len(vs); errs is nil when every vertex was named,
	// and otherwise positionally aligned with vs.
	Owners(ctx context.Context, instance string, vs []hypercube.Vertex, addrs []transport.Addr) (errs []error)
	// Send delivers body to v's owner through sender — first to at when
	// it is set (the owner Owners named for v), else to the owner the
	// resolver names — and returns the reply and the number of frames
	// handed to sender. A one-unit sub-query reply refusing its unit is a
	// refusal like ErrNotOwner.
	Send(ctx context.Context, sender transport.Sender, instance string, v hypercube.Vertex, at transport.Addr, body any) (any, int, error)
}

// VertexKey derives the DHT key under which logical vertex v of index
// instance 'instance' is placed; g(v) is the DHT surrogate of this key.
// The instance name salts the mapping so that decomposed indexes (and
// independent deployments) spread differently over the same ring.
func VertexKey(instance string, v hypercube.Vertex) dht.ID {
	return dht.HashString("hx:" + instance + ":" + strconv.FormatUint(uint64(v), 16))
}

// resolveOwner names the owner of one vertex.
func resolveOwner(ctx context.Context, r Resolver, instance string, v hypercube.Vertex) (transport.Addr, error) {
	var addr [1]transport.Addr
	if errs := r.Owners(ctx, instance, []hypercube.Vertex{v}, addr[:]); errs != nil {
		return "", errs[0]
	}
	return addr[0], nil
}

// OverlayResolver routes a vertex by its ring key with the overlay's
// routing rule (chord.Router), the one rule that also routes Chord's
// reference keys: a Chord node names owners from its own and learned
// arcs and follows refusal hints. What it keeps is the vertices' ring
// keys, which never change: memoised, never invalidated.
type OverlayResolver struct {
	router chord.Router
	keys   ringKeys
}

var _ Resolver = (*OverlayResolver)(nil)

// NewOverlayResolver builds a resolver over the overlay.
func NewOverlayResolver(overlay dht.Overlay) *OverlayResolver {
	return &OverlayResolver{router: chord.NewRouter(overlay), keys: ringKeys{byInstance: map[string]*instanceKeys{}}}
}

// Owners implements Resolver.
func (r *OverlayResolver) Owners(ctx context.Context, instance string, vs []hypercube.Vertex, addrs []transport.Addr) []error {
	keys := r.keys.of(instance)
	return r.router.Owners(ctx, func(i int) dht.ID { return keys.key(instance, vs[i]) }, addrs)
}

// Send implements Resolver: one routed call, whose sends the rule
// bounds.
func (r *OverlayResolver) Send(ctx context.Context, sender transport.Sender, instance string, v hypercube.Vertex, at transport.Addr, body any) (any, int, error) {
	return r.router.Route(ctx, r.keys.of(instance).key(instance, v), at, func(ctx context.Context, to transport.Addr) (any, error) {
		return sendOnce(ctx, sender, to, body)
	})
}

// sendOnce is one send to a vertex's owner, with a sub-query reply
// refusing its one unit — the per-unit form of ErrNotOwner — returned
// as that refusal.
func sendOnce(ctx context.Context, sender transport.Sender, to transport.Addr, body any) (any, error) {
	resp, err := sender.Send(ctx, to, body)
	if r, ok := resp.(respSubQueryBatch); ok && err == nil && len(r.Hits) == 1 && r.Hits[0].ErrCode == errCodeNotOwner {
		return nil, ErrNotOwner
	}
	return resp, err
}

// Ring-key memo bounds. Instance names arrive in remote frames, so at
// most maxKeyedInstances are memoised per resolver; a vertex of any
// other instance, or past maxKeyedVertices, is hashed per call.
const (
	maxKeyedInstances = 64
	maxKeyedVertices  = 1 << 16
	keyChunk          = 64
)

// ringKeys memoises VertexKey per instance. A wave reads its instance's
// memo once and then each vertex's key with one atomic load.
type ringKeys struct {
	mu         sync.Mutex
	byInstance map[string]*instanceKeys
}

// instanceKeys is one instance's memo: a dense array of chunks of
// keyChunk keys, each computed whole on first use and then only read.
type instanceKeys [maxKeyedVertices / keyChunk]atomic.Pointer[[keyChunk]dht.ID]

// of returns instance's memo, or nil past the instance bound.
func (rk *ringKeys) of(instance string) *instanceKeys {
	rk.mu.Lock()
	defer rk.mu.Unlock()
	ik := rk.byInstance[instance]
	if ik == nil && len(rk.byInstance) < maxKeyedInstances {
		ik = new(instanceKeys)
		rk.byInstance[instance] = ik
	}
	return ik
}

// key returns VertexKey(instance, v), from the memo when v is in it.
func (ik *instanceKeys) key(instance string, v hypercube.Vertex) dht.ID {
	if ik != nil && v < maxKeyedVertices {
		if c := ik[v/keyChunk].Load(); c != nil {
			return c[v%keyChunk]
		}
	}
	return ik.fill(instance, v)
}

// fill computes v's key, and its whole chunk into the memo when v is in
// it. Racing first uses compute equal chunks; either may stay.
func (ik *instanceKeys) fill(instance string, v hypercube.Vertex) dht.ID {
	if ik == nil || v >= maxKeyedVertices {
		return VertexKey(instance, v)
	}
	c := new([keyChunk]dht.ID)
	for j := range c {
		c[j] = VertexKey(instance, v&^(keyChunk-1)+hypercube.Vertex(j))
	}
	ik[v/keyChunk].Store(c)
	return c[v%keyChunk]
}

// FuncResolver adapts a plain instance-agnostic function to Resolver.
// The experiment harness uses it to model the one-logical-node-per-
// physical-node deployments of Section 4 without DHT traffic.
type FuncResolver func(v hypercube.Vertex) transport.Addr

var _ Resolver = (FuncResolver)(nil)

// Owners implements Resolver, ignoring the instance name; the mapping
// function is pure, so the batch is a plain loop filling addrs.
func (f FuncResolver) Owners(_ context.Context, _ string, vs []hypercube.Vertex, addrs []transport.Addr) []error {
	var errs []error
	for i, v := range vs {
		if addrs[i] = f(v); addrs[i] == "" {
			if errs == nil {
				errs = make([]error, len(vs))
			}
			errs[i] = fmt.Errorf("core: no address for vertex %d", v)
		}
	}
	return errs
}

// Send implements Resolver with one send: the mapping is fixed, so a
// failure has no other owner to try.
func (f FuncResolver) Send(ctx context.Context, sender transport.Sender, _ string, v hypercube.Vertex, at transport.Addr, body any) (any, int, error) {
	if at == "" {
		if at = f(v); at == "" {
			return nil, 0, fmt.Errorf("core: no address for vertex %d", v)
		}
	}
	resp, err := sendOnce(ctx, sender, at, body)
	return resp, 1, err
}
