package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Replicated implements the index-replication remark of Section 3.4:
// "replication can be done … by building a secondary hypercube". Each
// replica is an independent index instance — its own hash seed and its
// own vertex→node mapping — so the node responsible for a keyword set
// differs across replicas and no single node failure can silence a
// query. Writes fan out to every replica; reads go to the primary and
// fail over to the next replica when the primary's responsible node is
// unreachable.
type Replicated struct {
	clients []*Client // clients[0] is the primary

	// Pre-resolved instruments (nil without telemetry; see SetTelemetry).
	writes        *telemetry.Counter // core_replica_writes_total
	writeFailures *telemetry.Counter // core_replica_write_failures_total
	reads         *telemetry.Counter // core_replica_reads_total
	failovers     *telemetry.Counter // core_replica_failovers_total
}

// NewReplicated builds a replicated index over the given per-instance
// clients. At least one client is required; instances must be
// distinct, and for failure independence each client should use a
// different hash seed and resolver salt.
func NewReplicated(clients ...*Client) (*Replicated, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: replicated index needs at least one client")
	}
	seen := make(map[string]bool, len(clients))
	for i, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("core: replica %d is nil", i)
		}
		if seen[c.Instance()] {
			return nil, fmt.Errorf("core: duplicate replica instance %q", c.Instance())
		}
		seen[c.Instance()] = true
	}
	return &Replicated{clients: clients}, nil
}

// SetTelemetry wires the replicated index's fan-out accounting into
// reg: writes attempted and failed per replica, reads issued, and
// read failovers past an unusable replica. Call before serving
// traffic; a nil registry leaves the instrumentation disabled.
func (r *Replicated) SetTelemetry(reg *telemetry.Registry) {
	r.writes = reg.Counter("core_replica_writes_total")
	r.writeFailures = reg.Counter("core_replica_write_failures_total")
	r.reads = reg.Counter("core_replica_reads_total")
	r.failovers = reg.Counter("core_replica_failovers_total")
	reg.Gauge("core_replica_fanout").Set(int64(len(r.clients)))
}

// Fanout returns the number of replicas.
func (r *Replicated) Fanout() int { return len(r.clients) }

// Primary returns the primary replica's client (e.g. for cumulative
// cursors, which are pinned to one responsible node).
func (r *Replicated) Primary() *Client { return r.clients[0] }

// Replica returns the i-th replica's client (0 = primary).
func (r *Replicated) Replica(i int) *Client {
	if i < 0 || i >= len(r.clients) {
		return nil
	}
	return r.clients[i]
}

// Insert places the object's index entry in every replica. The cost is
// one message per replica — the storage/consistency price of fault
// tolerance the paper notes. Partial failures are reported after all
// replicas have been attempted; the entry is present in the replicas
// that succeeded.
func (r *Replicated) Insert(ctx context.Context, obj Object) (Stats, error) {
	var (
		total    Stats
		firstErr error
	)
	for _, c := range r.clients {
		r.writes.Inc()
		st, err := c.Insert(ctx, obj)
		if err != nil {
			r.writeFailures.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %q: %w", c.Instance(), err)
			}
			continue
		}
		total.Add(st)
	}
	return total, firstErr
}

// Delete removes the object's entry from every replica. found reports
// whether any replica held it.
func (r *Replicated) Delete(ctx context.Context, obj Object) (bool, Stats, error) {
	var (
		total    Stats
		found    bool
		firstErr error
	)
	for _, c := range r.clients {
		r.writes.Inc()
		ok, st, err := c.Delete(ctx, obj)
		if err != nil {
			r.writeFailures.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %q: %w", c.Instance(), err)
			}
			continue
		}
		found = found || ok
		total.Add(st)
	}
	return found, total, firstErr
}

// failover reports whether the error warrants trying the next replica:
// transport-level unreachability (including a breaker-open rejection,
// which wraps ErrUnreachable), a timed-out attempt, or an ownership
// misroute — the replica's vertex re-homed and routing has not settled
// (ErrNotOwner), which is a fault of this replica's topology, not of
// the query. Any other application error from a healthy node — an
// ErrRemote or a protocol sentinel — would fail identically on every
// replica and surfaces immediately instead.
func failover(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) || errors.Is(err, context.DeadlineExceeded) ||
		dht.Refused(err)
}

// betterResult ranks replica answers for completeness-aware selection:
// any matches beat none, then the more complete wave, then the larger
// answer.
func betterResult(a, b Result) bool {
	if (len(a.Matches) > 0) != (len(b.Matches) > 0) {
		return len(a.Matches) > 0
	}
	if a.Completeness != b.Completeness {
		return a.Completeness > b.Completeness
	}
	return len(a.Matches) > len(b.Matches)
}

// PinSearch queries the replicas in order and returns the first
// non-empty answer. Trying the next replica on an empty answer (not
// only on unreachability) covers the surrogate-remap case: after a
// node crash the healed ring routes the vertex to a fresh node whose
// table is empty, so the primary "succeeds" with no results even
// though a replica still holds the entry.
func (r *Replicated) PinSearch(ctx context.Context, k keyword.Set) ([]string, Stats, error) {
	var (
		lastErr  error
		empty    []string
		emptySt  Stats
		answered bool
	)
	for i, c := range r.clients {
		if i > 0 {
			r.failovers.Inc()
		}
		r.reads.Inc()
		ids, st, err := c.PinSearch(ctx, k)
		if err == nil {
			if len(ids) > 0 {
				return ids, st, nil
			}
			if !answered {
				empty, emptySt, answered = ids, st, true
			}
			continue
		}
		if !failover(err) {
			return nil, Stats{}, err
		}
		lastErr = err
	}
	if answered {
		return empty, emptySt, nil
	}
	return nil, Stats{}, fmt.Errorf("all %d replicas failed: %w", len(r.clients), lastErr)
}

// SupersetSearch queries the primary replica and returns its answer
// when it is conclusive: non-empty and complete (every vertex of the
// wave answered). Otherwise the next replicas are consulted — an
// unreachable root, an empty answer (the surrogate-remap case: after a
// crash the healed ring routes the vertex to a fresh node with an
// empty table, so the primary "succeeds" with nothing even though a
// replica still holds the entry) and a degraded wave all fall through
// — and the best answer wins: matches over none, then the more
// complete wave, then the larger answer. A degraded result keeps its
// Completeness < 1 so callers can tell it apart from an exact one.
func (r *Replicated) SupersetSearch(ctx context.Context, k keyword.Set, threshold int, opts SearchOptions) (Result, error) {
	var (
		lastErr  error
		best     Result
		answered bool
	)
	for i, c := range r.clients {
		if i > 0 {
			r.failovers.Inc()
		}
		r.reads.Inc()
		res, err := c.SupersetSearch(ctx, k, threshold, opts)
		if err == nil {
			if len(res.Matches) > 0 && res.Completeness >= 1 {
				return res, nil
			}
			if !answered || betterResult(res, best) {
				best, answered = res, true
			}
			continue
		}
		if !failover(err) {
			return Result{}, err
		}
		lastErr = err
	}
	if answered {
		return best, nil
	}
	return Result{}, fmt.Errorf("all %d replicas failed: %w", len(r.clients), lastErr)
}

// PrefixSearch queries the primary replica's prefix multicast and
// fails over exactly like SupersetSearch: a conclusive answer
// (non-empty and complete) returns immediately, anything weaker lets
// the remaining replicas compete and the best answer wins.
func (r *Replicated) PrefixSearch(ctx context.Context, prefix string, threshold int, opts SearchOptions) (Result, error) {
	var (
		lastErr  error
		best     Result
		answered bool
	)
	for i, c := range r.clients {
		if i > 0 {
			r.failovers.Inc()
		}
		r.reads.Inc()
		res, err := c.PrefixSearch(ctx, prefix, threshold, opts)
		if err == nil {
			if len(res.Matches) > 0 && res.Completeness >= 1 {
				return res, nil
			}
			if !answered || betterResult(res, best) {
				best, answered = res, true
			}
			continue
		}
		if !failover(err) {
			return Result{}, err
		}
		lastErr = err
	}
	if answered {
		return best, nil
	}
	return Result{}, fmt.Errorf("all %d replicas failed: %w", len(r.clients), lastErr)
}
