package dht

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Static is a dht.Overlay with a fixed, fully-known membership: every
// lookup resolves locally in one step to the successor of the key on
// the ring. It models an idealized converged DHT; tests of packages
// core and dht use it where index-layer node contacts matter and DHT
// routing hops do not. References are stored in-process.
type Static struct {
	mu      sync.Mutex
	ids     []ID // sorted
	byID    map[ID]transport.Addr
	refs    RefStore
	lookups uint64
}

var _ Overlay = (*Static)(nil)

// NewStatic builds a static overlay from the given members. Member IDs
// are derived from their addresses with HashString, like Chord does.
func NewStatic(members []transport.Addr) (*Static, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("dht: static overlay needs at least one member")
	}
	s := &Static{byID: make(map[ID]transport.Addr, len(members))}
	for _, addr := range members {
		id := HashString(string(addr))
		if _, dup := s.byID[id]; dup {
			return nil, fmt.Errorf("dht: static overlay ID collision for %q", addr)
		}
		s.byID[id] = addr
		s.ids = append(s.ids, id)
	}
	sort.Slice(s.ids, func(i, j int) bool { return s.ids[i] < s.ids[j] })
	return s, nil
}

// SuccessorOf returns the member acting as surrogate for id.
func (s *Static) SuccessorOf(id ID) transport.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.successorLocked(id)
}

func (s *Static) successorLocked(id ID) transport.Addr {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i == len(s.ids) {
		i = 0 // wrap to the smallest ID
	}
	return s.byID[s.ids[i]]
}

// Lookup implements Overlay with a single local step.
func (s *Static) Lookup(ctx context.Context, id ID) (transport.Addr, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	return s.successorLocked(id), 1, nil
}

// Lookups returns the number of Lookup calls served (metric).
func (s *Static) Lookups() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookups
}

// Insert implements Overlay.
func (s *Static) Insert(ctx context.Context, ref Reference) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	return s.refs.Insert(ref), nil
}

// Delete implements Overlay.
func (s *Static) Delete(ctx context.Context, ref Reference) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	found, remaining := s.refs.Delete(ref)
	if !found {
		return remaining, ErrNoSuchReference
	}
	return remaining, nil
}

// Read implements Overlay.
func (s *Static) Read(ctx context.Context, objectID string) ([]Reference, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	refs := s.refs.Refs(objectID)
	if refs == nil {
		return nil, ErrNoSuchObject
	}
	return refs, nil
}
