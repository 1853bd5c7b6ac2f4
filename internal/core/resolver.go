package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Resolver implements the mapping g of Section 3.2: it resolves a
// logical hypercube vertex of one index instance to the transport
// address of the physical DHT node responsible for it. The instance
// name salts the mapping so independent instances (replicas,
// decomposed families) spread differently over the same nodes.
type Resolver interface {
	Resolve(ctx context.Context, instance string, v hypercube.Vertex) (transport.Addr, error)
	// ResolveBatch resolves a whole wave of vertices at once into the
	// caller's addrs, which has len(vs); addrs is positionally aligned
	// with vs, and so is errs — which is nil when every vertex resolved.
	ResolveBatch(ctx context.Context, instance string, vs []hypercube.Vertex, addrs []transport.Addr) (errs []error)
}

// VertexKey derives the DHT key under which logical vertex v of index
// instance 'instance' is placed; g(v) is the DHT surrogate of this key.
// The instance name salts the mapping so that decomposed indexes (and
// independent deployments) spread differently over the same ring.
func VertexKey(instance string, v hypercube.Vertex) dht.ID {
	return dht.HashString("hx:" + instance + ":" + strconv.FormatUint(uint64(v), 16))
}

// batchResolveFanout bounds the concurrent overlay lookups one
// ResolveBatch call may have in flight.
const batchResolveFanout = 16

// OverlayResolver resolves vertices through a dht.Overlay lookup,
// caching (instance, vertex)→address bindings (the neighbor caching of
// Section 3.4, remark 4), keyed by instance and then by vertex so a
// wave hashes its instance name once, not once per vertex. Invalidate
// drops a cached binding after a send to it fails, so churn is handled
// by re-resolution. Concurrent Resolve calls for the same cold binding
// are deduplicated: one caller performs the overlay lookup and the rest
// wait for its outcome.
type OverlayResolver struct {
	overlay dht.Overlay

	mu      sync.Mutex
	cache   map[string]map[hypercube.Vertex]transport.Addr
	flights map[bindingKey]*flight
}

type bindingKey struct {
	instance string
	vertex   hypercube.Vertex
}

// flight is one in-progress overlay lookup; joiners block on done.
type flight struct {
	done chan struct{}
	addr transport.Addr
	err  error
}

var _ Resolver = (*OverlayResolver)(nil)

// NewOverlayResolver builds a caching resolver over the overlay.
func NewOverlayResolver(overlay dht.Overlay) *OverlayResolver {
	return &OverlayResolver{
		overlay: overlay,
		cache:   make(map[string]map[hypercube.Vertex]transport.Addr),
		flights: make(map[bindingKey]*flight),
	}
}

// Resolve implements Resolver.
func (r *OverlayResolver) Resolve(ctx context.Context, instance string, v hypercube.Vertex) (transport.Addr, error) {
	key := bindingKey{instance: instance, vertex: v}
	r.mu.Lock()
	if addr, ok := r.cache[instance][v]; ok {
		r.mu.Unlock()
		return addr, nil
	}
	if fl, ok := r.flights[key]; ok {
		// Another goroutine is already looking this binding up; wait
		// for its answer instead of stampeding the overlay.
		r.mu.Unlock()
		select {
		case <-fl.done:
			return fl.addr, fl.err
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	r.flights[key] = fl
	r.mu.Unlock()

	addr, _, err := r.overlay.Lookup(ctx, VertexKey(instance, v))
	if err != nil {
		err = fmt.Errorf("resolve vertex %d: %w", v, err)
	}
	fl.addr, fl.err = addr, err

	r.mu.Lock()
	if err == nil {
		byVertex := r.cache[instance]
		if byVertex == nil {
			byVertex = make(map[hypercube.Vertex]transport.Addr)
			r.cache[instance] = byVertex
		}
		byVertex[v] = addr
	}
	delete(r.flights, key)
	r.mu.Unlock()
	close(fl.done)
	if err != nil {
		return "", err
	}
	return addr, nil
}

// ResolveBatch resolves a wave of vertices. Cached bindings — in steady
// state all of them — are answered in one pass under one lock
// acquisition; only the misses go to Resolve, with bounded concurrency.
// Duplicate vertices in vs and concurrent calls for overlapping waves
// collapse onto single overlay lookups via the cache and the
// singleflight table.
func (r *OverlayResolver) ResolveBatch(ctx context.Context, instance string, vs []hypercube.Vertex, addrs []transport.Addr) []error {
	var misses []int
	r.mu.Lock()
	byVertex := r.cache[instance]
	for i, v := range vs {
		addr, ok := byVertex[v]
		if !ok {
			misses = append(misses, i)
		}
		addrs[i] = addr
	}
	r.mu.Unlock()
	if len(misses) == 0 {
		return nil
	}
	errs := make([]error, len(vs))
	fanOut(len(misses), batchResolveFanout, func(k int) {
		i := misses[k]
		addrs[i], errs[i] = r.Resolve(ctx, instance, vs[i])
	})
	for _, i := range misses {
		if errs[i] != nil {
			return errs
		}
	}
	return nil
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

// refusedOwnership reports that err is a peer's ErrNotOwner. Remote
// handler errors cross the wire flattened to text (both transports), so
// past a transport the sentinel is recovered by message.
func refusedOwnership(err error) bool {
	return errors.Is(err, ErrNotOwner) ||
		errors.Is(err, transport.ErrRemote) && strings.Contains(err.Error(), ErrNotOwner.Error())
}

// maxOwnerSends bounds the frames one sendToVertex call hands to the
// transport: the first send, the retry every failure gets, and five
// more for a refusal, 1/2/4/8/16 ms apart.
const maxOwnerSends = 7

// sendToVertex resolves v and delivers body to its owner — one rule for
// inserts, deletes, T_QUERY and a one-unit sub-query. Any failure is
// retried once through a fresh resolution: the cached binding has gone
// stale (the node departed and its key range re-homed). An ownership
// refusal — ErrNotOwner, or a sub-query reply refusing its one unit — is
// a ring mid-join: the lookup and the target's arc disagree for longer
// than one re-resolution, so it is retried until maxOwnerSends,
// re-resolving after a doubling pause each time. A transport failure is
// not: the resilience layer below already spent its retries on it. The
// int result counts the frames actually handed to the transport.
func sendToVertex(ctx context.Context, resolver Resolver, sender transport.Sender, instance string, v hypercube.Vertex, body any) (any, int, error) {
	inv, _ := resolver.(*OverlayResolver)
	for sends := 0; ; {
		addr, err := resolver.Resolve(ctx, instance, v)
		if err != nil {
			return nil, sends, err
		}
		sends++
		resp, err := sender.Send(ctx, addr, body)
		if err == nil && unitRefused(resp) {
			err = ErrNotOwner
		}
		if err == nil {
			return resp, sends, nil
		}
		retry := sends == 1 || sends < maxOwnerSends && refusedOwnership(err)
		if inv == nil || !retry {
			return nil, sends, err
		}
		inv.Invalidate(instance, v)
		if sends > 1 {
			select {
			case <-time.After(time.Millisecond << (sends - 2)):
			case <-ctx.Done():
				return nil, sends, ctx.Err()
			}
		}
	}
}

// unitRefused reports a sub-query reply refusing its one unit: the
// per-unit form of ErrNotOwner.
func unitRefused(resp any) bool {
	r, ok := resp.(respSubQueryBatch)
	return ok && len(r.Hits) == 1 && r.Hits[0].ErrCode == errCodeNotOwner
}

// Invalidate forgets the cached binding for v in the given instance.
func (r *OverlayResolver) Invalidate(instance string, v hypercube.Vertex) {
	r.mu.Lock()
	delete(r.cache[instance], v)
	r.mu.Unlock()
}

// CacheSize returns the number of cached bindings (diagnostic).
func (r *OverlayResolver) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, byVertex := range r.cache {
		n += len(byVertex)
	}
	return n
}

// FuncResolver adapts a plain instance-agnostic function to Resolver.
// The experiment harness uses it to model the one-logical-node-per-
// physical-node deployments of Section 4 without DHT traffic.
type FuncResolver func(v hypercube.Vertex) transport.Addr

var _ Resolver = (FuncResolver)(nil)

// Resolve implements Resolver, ignoring the instance name.
func (f FuncResolver) Resolve(_ context.Context, _ string, v hypercube.Vertex) (transport.Addr, error) {
	addr := f(v)
	if addr == "" {
		return "", fmt.Errorf("core: no address for vertex %d", v)
	}
	return addr, nil
}

// ResolveBatch implements Resolver; the mapping function is pure, so
// the batch is a plain loop filling the caller's addrs.
func (f FuncResolver) ResolveBatch(ctx context.Context, instance string, vs []hypercube.Vertex, addrs []transport.Addr) []error {
	var errs []error
	for i, v := range vs {
		var err error
		if addrs[i], err = f.Resolve(ctx, instance, v); err != nil {
			if errs == nil {
				errs = make([]error, len(vs))
			}
			errs[i] = err
		}
	}
	return errs
}
