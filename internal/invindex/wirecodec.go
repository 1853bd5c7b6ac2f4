package invindex

import (
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// Wire type IDs of the inverted-index baseline. Package core owns
// 1–31, chord 32–63, invindex 64–95. Never reuse or renumber a live ID.
const (
	wireMsgInsertPosting  = 64
	wireRespAck           = 65
	wireMsgDeletePosting  = 66
	wireRespDeletePosting = 67
	wireMsgFetchPostings  = 68
	wireRespFetchPostings = 69
)

// RegisterTypes binds the baseline's messages to their wire type IDs
// for networked transports.
func RegisterTypes() {
	wire.Register[msgInsertPosting](wireMsgInsertPosting)
	wire.Register[respAck](wireRespAck)
	wire.Register[msgDeletePosting](wireMsgDeletePosting)
	wire.Register[respDeletePosting](wireRespDeletePosting)
	wire.Register[msgFetchPostings](wireMsgFetchPostings)
	wire.Register[respFetchPostings](wireRespFetchPostings)
}

func (m msgInsertPosting) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Vertex)
	w.String(m.Word)
	w.String(m.ObjectID)
}

func (m *msgInsertPosting) UnmarshalWire(r *wire.Reader) error {
	m.Vertex = r.Uvarint()
	m.Word = r.String()
	m.ObjectID = r.String()
	return r.Err()
}

func (m respAck) MarshalWire(w *wire.Writer)          {}
func (m *respAck) UnmarshalWire(r *wire.Reader) error { return r.Err() }

func (m msgDeletePosting) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Vertex)
	w.String(m.Word)
	w.String(m.ObjectID)
}

func (m *msgDeletePosting) UnmarshalWire(r *wire.Reader) error {
	m.Vertex = r.Uvarint()
	m.Word = r.String()
	m.ObjectID = r.String()
	return r.Err()
}

func (m respDeletePosting) MarshalWire(w *wire.Writer)          { w.Bool(m.Found) }
func (m *respDeletePosting) UnmarshalWire(r *wire.Reader) error { m.Found = r.Bool(); return r.Err() }

func (m msgFetchPostings) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Vertex)
	w.String(m.Word)
}

func (m *msgFetchPostings) UnmarshalWire(r *wire.Reader) error {
	m.Vertex = r.Uvarint()
	m.Word = r.String()
	return r.Err()
}

func (m respFetchPostings) MarshalWire(w *wire.Writer) {
	w.Uvarint(uint64(len(m.ObjectIDs)))
	for _, id := range m.ObjectIDs {
		w.String(id)
	}
}

func (m *respFetchPostings) UnmarshalWire(r *wire.Reader) error {
	n := r.Count(1)
	if n > 0 {
		m.ObjectIDs = make([]string, n)
		for i := range m.ObjectIDs {
			m.ObjectIDs[i] = r.String()
		}
	}
	return r.Err()
}
