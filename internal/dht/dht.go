// Package dht defines the generalized DHT network model of Section 2.1
// of the paper: an overlay of nodes with a-bit IDs, a distributed
// object location and routing (DOLR) scheme with a deterministic
// mapping L from object IDs to node IDs, surrogate routing for absent
// IDs, and Insert/Delete/Read operations on object references.
//
// The keyword-index layer (internal/core) is written against these
// interfaces, so any overlay satisfying them can host the index;
// package dht/chord provides the concrete Chord implementation.
package dht

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// ID is a node or key identifier on the 64-bit ring. The ID space is
// {0, …, 2^64-1}; arithmetic is modular.
type ID uint64

// Sentinel errors of the DOLR scheme.
var (
	// ErrNoSuchObject reports a Read or Delete of an unknown object.
	ErrNoSuchObject = errors.New("dht: no such object")
	// ErrNoSuchReference reports a Delete of a reference that was
	// never inserted (or was already removed).
	ErrNoSuchReference = errors.New("dht: no such reference")
	// ErrNotJoined reports an operation on a node outside any ring.
	ErrNotJoined = errors.New("dht: node has not joined a ring")
	// ErrNotOwner refuses a request whose ring key lies outside the
	// serving node's arc (pred, self]: the sender's route is stale (a
	// join or leave it has not heard of). It is a topology error, not an
	// application outcome, and the refused request changed nothing.
	ErrNotOwner = errors.New("dht: node does not own the key")
)

// Refused reports that err is a node's ErrNotOwner. Remote handler
// errors cross the wire flattened to text (both transports), so past a
// transport the sentinel is recovered by message.
func Refused(err error) bool {
	return errors.Is(err, ErrNotOwner) ||
		errors.Is(err, transport.ErrRemote) && strings.Contains(err.Error(), ErrNotOwner.Error())
}

// HashKey implements the deterministic, uniform mapping L (and the
// hypercube-to-DHT mapping g): it hashes an arbitrary byte key into
// the ID space with SHA-256 truncated to 64 bits.
func HashKey(key []byte) ID {
	sum := sha256.Sum256(key)
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// HashString is HashKey for string keys.
func HashString(key string) ID {
	return HashKey([]byte(key))
}

// Between reports whether id lies in the half-open ring interval
// (from, to]. It handles wrap-around; when from == to the interval is
// the full ring (every id qualifies), matching Chord's conventions for
// a single-node ring.
func Between(id, from, to ID) bool {
	if from == to {
		return true
	}
	if from < to {
		return from < id && id <= to
	}
	return id > from || id <= to
}

// BetweenOpen reports whether id lies in the open interval (from, to).
func BetweenOpen(id, from, to ID) bool {
	if from == to {
		return id != from
	}
	if from < to {
		return from < id && id < to
	}
	return id > from || id < to
}

// Reference is the paper's (σ, u) pair: a pointer to one replica of
// object σ held by publisher u. Holder is the transport address of the
// publisher and Location an application-defined locator within it.
type Reference struct {
	ObjectID string
	Holder   transport.Addr
	Location string
}

// Overlay is the node-side view of the DOLR scheme. Every method may
// be invoked on any node of the ring; routing to the responsible node
// is the overlay's job (including surrogate routing when the exact ID
// is absent).
type Overlay interface {
	// Lookup returns the transport address of the live node acting as
	// surrogate for id (the successor of id on the ring) together with
	// the number of overlay hops taken.
	Lookup(ctx context.Context, id ID) (transport.Addr, int, error)

	// Insert places ref on the node responsible for L(ref.ObjectID),
	// i.e. the paper's Insert(x, σ, u). first reports whether this was
	// the object's first reference — the paper's trigger for creating
	// the object's keyword-index entry.
	Insert(ctx context.Context, ref Reference) (first bool, err error)

	// Delete removes ref from the responsible node. It returns
	// ErrNoSuchReference if the reference is absent and reports, via
	// remaining, how many replicas of the object remain indexed.
	Delete(ctx context.Context, ref Reference) (remaining int, err error)

	// Read returns all references to the object, i.e. the paper's
	// Read(σ), sorted by (Holder, Location). It returns ErrNoSuchObject
	// if none exist.
	Read(ctx context.Context, objectID string) ([]Reference, error)
}
