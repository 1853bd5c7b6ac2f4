package dht

import (
	"cmp"
	"slices"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// RefStore is the reference table of one DOLR node: for every object
// mapped to the node, the (holder, location) pairs of its published
// copies. The object ID is stored once, as the map key, and each holder
// slice is kept sorted by (Holder, Location) and is never empty, so a
// single-publisher object costs one map slot and one 32-byte element.
// The duplicate check is a binary search, O(log h) for an object with h
// publishers.
//
// RefStore has no lock of its own: its owner serializes access. The zero
// value is an empty store.
type RefStore struct {
	objects map[string][]holderRef
}

// holderRef is a Reference without its ObjectID, which is the map key.
type holderRef struct {
	holder   transport.Addr
	location string
}

func compareHolders(a, b holderRef) int {
	return cmp.Or(strings.Compare(string(a.holder), string(b.holder)), strings.Compare(a.location, b.location))
}

// Insert adds ref and reports whether it is the object's first
// reference. Inserting a reference already present changes nothing.
func (s *RefStore) Insert(ref Reference) (first bool) {
	h := holderRef{ref.Holder, ref.Location}
	hs, ok := s.objects[ref.ObjectID]
	if !ok {
		if s.objects == nil {
			s.objects = make(map[string][]holderRef)
		}
		s.objects[ref.ObjectID] = []holderRef{h}
		return true
	}
	i, dup := slices.BinarySearchFunc(hs, h, compareHolders)
	if !dup {
		s.objects[ref.ObjectID] = slices.Insert(hs, i, h)
	}
	return false
}

// Delete removes ref. found reports whether it was present; remaining
// is how many references to the object are left either way.
func (s *RefStore) Delete(ref Reference) (found bool, remaining int) {
	hs := s.objects[ref.ObjectID]
	i, found := slices.BinarySearchFunc(hs, holderRef{ref.Holder, ref.Location}, compareHolders)
	switch {
	case !found:
		return false, len(hs)
	case len(hs) == 1:
		delete(s.objects, ref.ObjectID)
		return true, 0
	}
	hs = slices.Delete(hs, i, i+1)
	s.objects[ref.ObjectID] = hs
	return true, len(hs)
}

// Refs returns the object's references sorted by (Holder, Location), or
// nil when it has none.
func (s *RefStore) Refs(objectID string) []Reference {
	return appendRefs(nil, objectID, s.objects[objectID])
}

// Objects returns the number of objects with at least one reference.
func (s *RefStore) Objects() int { return len(s.objects) }

// Extract removes and returns every reference of each object for which
// move returns true — a handoff of a key range, or of everything.
func (s *RefStore) Extract(move func(objectID string) bool) []Reference {
	var out []Reference
	for id, hs := range s.objects {
		if move(id) {
			out = appendRefs(out, id, hs)
			delete(s.objects, id)
		}
	}
	if len(s.objects) == 0 {
		s.objects = nil // a map never shrinks: let an emptied one go
	}
	return out
}

func appendRefs(out []Reference, objectID string, hs []holderRef) []Reference {
	out = slices.Grow(out, len(hs))
	for _, h := range hs {
		out = append(out, Reference{ObjectID: objectID, Holder: h.holder, Location: h.location})
	}
	return out
}
