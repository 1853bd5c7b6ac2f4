package store

import (
	"cmp"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// Entry is one index entry ⟨K_σ, σ⟩ of the table Tbl_u at vertex u of
// one index instance: the unit a client's insert and delete carry, a
// WAL record logs, a snapshot lists and a migration page moves. Its
// byte form is MarshalWire's, the one encoding of an entry.
type Entry struct {
	Instance string
	Vertex   uint64
	SetKey   string
	ObjectID string
}

// Compare orders entries canonically: by instance, then vertex, then
// set key, then object ID. A migration pages the source's entries in
// this order, so any entry is an exact resume point.
func (e Entry) Compare(o Entry) int {
	if c := strings.Compare(e.Instance, o.Instance); c != 0 {
		return c
	}
	if c := cmp.Compare(e.Vertex, o.Vertex); c != 0 {
		return c
	}
	if c := strings.Compare(e.SetKey, o.SetKey); c != 0 {
		return c
	}
	return strings.Compare(e.ObjectID, o.ObjectID)
}

// MarshalWire appends e as its vertex (uvarint), then instance, set key
// and object ID (each a uvarint length and its bytes).
func (e Entry) MarshalWire(w *wire.Writer) {
	w.Uvarint(e.Vertex)
	w.String(e.Instance)
	w.String(e.SetKey)
	w.String(e.ObjectID)
}

// UnmarshalWire reads what MarshalWire wrote; errors stick to r.
func (e *Entry) UnmarshalWire(r *wire.Reader) error {
	e.Vertex = r.Uvarint()
	e.Instance = r.String()
	e.SetKey = r.String()
	e.ObjectID = r.String()
	return r.Err()
}

// MinEntryBytes is the shortest encoding of an Entry (a one-byte vertex
// and three empty strings), the element size that bounds a decoded
// page's allocation (wire.Reader.Count).
const MinEntryBytes = 4
