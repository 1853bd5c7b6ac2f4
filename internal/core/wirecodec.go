package core

import (
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// Wire type IDs of the index protocol. IDs 1–31 belong to package
// core; chord owns 32–63 and invindex 64–95. Never reuse or renumber a
// live ID — the registry panics on conflicts, and mixed-version fleets
// would misparse each other. IDs 5 and 6 carried the dedicated pin
// request/response pair that predates QueryClass (pin is
// msgTQuery{Class: ClassPin} now), IDs 9 and 10 the per-vertex
// sub-query pair (a per-vertex send is a one-unit msgSubQueryBatch
// now), and ID 13 the bulk insert a leaving node pushed its tables with
// (its successor pulls them now); they are retired and stay unassigned
// forever, so a frame from a peer that still sends them fails to decode
// instead of being misread.
const (
	wireMsgInsertEntry    = 1
	wireRespAck           = 2
	wireMsgDeleteEntry    = 3
	wireRespDeleteEntry   = 4
	wireMsgTQuery         = 7
	wireRespTQuery        = 8
	wireMsgSubQueryBatch  = 11
	wireRespSubQueryBatch = 12
	wireMsgMigrateChunk   = 14
	wireRespMigrateChunk  = 15
	wireMsgMigrateCommit  = 16
	wireRespMigrateCommit = 17
	wireMsgSoftPromote    = 18
	wireMsgSoftInvalidate = 19
)

// RegisterTypes binds every index-protocol message to its wire type
// ID; required once per process for the TCP transport.
func RegisterTypes() {
	wire.Register[msgInsertEntry](wireMsgInsertEntry)
	wire.Register[respAck](wireRespAck)
	wire.Register[msgDeleteEntry](wireMsgDeleteEntry)
	wire.Register[respDeleteEntry](wireRespDeleteEntry)
	wire.Register[msgTQuery](wireMsgTQuery)
	wire.Register[respTQuery](wireRespTQuery)
	wire.Register[msgSubQueryBatch](wireMsgSubQueryBatch)
	wire.Register[respSubQueryBatch](wireRespSubQueryBatch)
	wire.Register[msgMigrateChunk](wireMsgMigrateChunk)
	wire.Register[respMigrateChunk](wireRespMigrateChunk)
	wire.Register[msgMigrateCommit](wireMsgMigrateCommit)
	wire.Register[respMigrateCommit](wireRespMigrateCommit)
	wire.Register[msgSoftPromote](wireMsgSoftPromote)
	wire.Register[msgSoftInvalidate](wireMsgSoftInvalidate)
}

// Shared field helpers. Matches carry two strings each, so the
// per-frame string arena in wire.Reader makes a batch of thousands of
// matches cost one string allocation total.

func marshalMatch(w *wire.Writer, m *Match) {
	w.String(m.ObjectID)
	w.String(m.SetKey)
	w.Uvarint(m.Vertex)
	w.Int(m.Depth)
}

func unmarshalMatch(r *wire.Reader, m *Match) {
	m.ObjectID = r.String()
	m.SetKey = r.String()
	m.Vertex = r.Uvarint()
	m.Depth = r.Int()
}

// minMatchBytes is the smallest encoding of one Match (two empty
// strings + vertex + depth); Count uses it to bound allocations.
const minMatchBytes = 4

func marshalMatches(w *wire.Writer, ms []Match) {
	w.Uvarint(uint64(len(ms)))
	for i := range ms {
		marshalMatch(w, &ms[i])
	}
}

func unmarshalMatches(r *wire.Reader) []Match {
	n := r.Count(minMatchBytes)
	if n == 0 {
		return nil
	}
	ms := make([]Match, n)
	for i := range ms {
		unmarshalMatch(r, &ms[i])
	}
	return ms
}

// A cursor is written the way an OpMigrate record writes its own: the
// started flag, then the entry only if started.
func (c wireCursor) MarshalWire(w *wire.Writer) {
	w.Bool(c.Started)
	if c.Started {
		c.Entry.MarshalWire(w)
	}
}

func (c *wireCursor) UnmarshalWire(r *wire.Reader) error {
	if c.Started = r.Bool(); c.Started {
		c.Entry.UnmarshalWire(r)
	}
	return r.Err()
}

// A client's insert and delete write their entry as store.Entry does,
// then the client ID.
func (m msgInsertEntry) MarshalWire(w *wire.Writer) {
	m.Entry.MarshalWire(w)
	w.String(m.ClientID)
}

func (m *msgInsertEntry) UnmarshalWire(r *wire.Reader) error {
	m.Entry.UnmarshalWire(r)
	m.ClientID = r.String()
	return r.Err()
}

func (m respAck) MarshalWire(w *wire.Writer)          {}
func (m *respAck) UnmarshalWire(r *wire.Reader) error { return r.Err() }

func (m msgDeleteEntry) MarshalWire(w *wire.Writer) {
	m.Entry.MarshalWire(w)
	w.String(m.ClientID)
}

func (m *msgDeleteEntry) UnmarshalWire(r *wire.Reader) error {
	m.Entry.UnmarshalWire(r)
	m.ClientID = r.String()
	return r.Err()
}

func (m respDeleteEntry) MarshalWire(w *wire.Writer)          { w.Bool(m.Found) }
func (m *respDeleteEntry) UnmarshalWire(r *wire.Reader) error { m.Found = r.Bool(); return r.Err() }

func (m msgTQuery) MarshalWire(w *wire.Writer) {
	w.String(m.Instance)
	w.Int(m.Dim)
	w.Uvarint(m.Vertex)
	w.String(m.QueryKey)
	w.Int(m.Threshold)
	w.Int(int(m.Order))
	w.Bool(m.Cumulative)
	w.U64(m.SessionID)
	w.Bool(m.NoCache)
	w.Bool(m.WantTrace)
	w.String(m.ClientID)
	w.Varint(m.DeadlineUnixNano)
	w.String(m.RefineFromKey)
	w.Uvarint(m.RefineFromVertex)
	w.Bool(m.SoftOnly)
	w.Int(int(m.Class))
	w.U64(m.DimMask)
}

func (m *msgTQuery) UnmarshalWire(r *wire.Reader) error {
	m.Instance = r.String()
	m.Dim = r.Int()
	m.Vertex = r.Uvarint()
	m.QueryKey = r.String()
	m.Threshold = r.Int()
	m.Order = TraversalOrder(r.Int())
	m.Cumulative = r.Bool()
	m.SessionID = r.U64()
	m.NoCache = r.Bool()
	m.WantTrace = r.Bool()
	m.ClientID = r.String()
	m.DeadlineUnixNano = r.Varint()
	m.RefineFromKey = r.String()
	m.RefineFromVertex = r.Uvarint()
	m.SoftOnly = r.Bool()
	m.Class = QueryClass(r.Int())
	m.DimMask = r.U64()
	return r.Err()
}

func (m respTQuery) MarshalWire(w *wire.Writer) {
	marshalMatches(w, m.Matches)
	w.Bool(m.Exhausted)
	w.U64(m.SessionID)
	w.Int(m.SubNodes)
	w.Int(m.SubMsgs)
	w.Int(m.Rounds)
	w.Int(m.FailedNodes)
	w.Int(m.PhysFrames)
	w.Bool(m.CacheHit)
	w.Int(m.ErrCode)
	w.Uvarint(uint64(len(m.Trace)))
	for _, ts := range m.Trace {
		w.Uvarint(ts.Vertex)
		w.Int(ts.Matches)
		w.Bool(ts.Failed)
	}
	w.Bool(m.RefineHit)
	w.Uvarint(uint64(len(m.SoftAddrs)))
	for _, a := range m.SoftAddrs {
		w.String(a)
	}
}

func (m *respTQuery) UnmarshalWire(r *wire.Reader) error {
	m.Matches = unmarshalMatches(r)
	m.Exhausted = r.Bool()
	m.SessionID = r.U64()
	m.SubNodes = r.Int()
	m.SubMsgs = r.Int()
	m.Rounds = r.Int()
	m.FailedNodes = r.Int()
	m.PhysFrames = r.Int()
	m.CacheHit = r.Bool()
	m.ErrCode = r.Int()
	if n := r.Count(3); n > 0 {
		m.Trace = make([]TraceStep, n)
		for i := range m.Trace {
			m.Trace[i].Vertex = r.Uvarint()
			m.Trace[i].Matches = r.Int()
			m.Trace[i].Failed = r.Bool()
		}
	}
	m.RefineHit = r.Bool()
	if n := r.Count(1); n > 0 {
		m.SoftAddrs = make([]string, n)
		for i := range m.SoftAddrs {
			m.SoftAddrs[i] = r.String()
		}
	}
	return r.Err()
}

func (m msgSubQueryBatch) MarshalWire(w *wire.Writer) {
	w.String(m.Instance)
	w.Uvarint(m.Root)
	w.String(m.QueryKey)
	w.Int(m.Limit)
	w.Varint(m.DeadlineUnixNano)
	w.Uvarint(uint64(len(m.Units)))
	for _, u := range m.Units {
		w.Uvarint(u.Vertex)
		w.Int(u.Skip)
	}
	w.Int(int(m.Class))
	w.Bool(m.Relay)
}

func (m *msgSubQueryBatch) UnmarshalWire(r *wire.Reader) error {
	m.Instance = r.String()
	m.Root = r.Uvarint()
	m.QueryKey = r.String()
	m.Limit = r.Int()
	m.DeadlineUnixNano = r.Varint()
	if n := r.Count(2); n > 0 {
		m.Units = make([]wireUnit, n)
		for i := range m.Units {
			m.Units[i].Vertex = r.Uvarint()
			m.Units[i].Skip = r.Int()
		}
	}
	m.Class = QueryClass(r.Int())
	m.Relay = r.Bool()
	return r.Err()
}

// respSubQueryBatch is the near-zero-copy path: the encoder streams
// every hit's match slice straight into the frame buffer with a
// frame-level total up front, and the decoder materializes all matches
// of the frame into ONE arena []Match (plus the Reader's one string
// arena), sub-sliced per hit. Indices travel as written — whether they
// fit the request is the root's call (sendBatch), which also sees the
// frames that never pass through a codec.
func (m respSubQueryBatch) MarshalWire(w *wire.Writer) {
	total := 0
	for i := range m.Hits {
		total += len(m.Hits[i].Matches)
	}
	w.Uvarint(uint64(total))
	w.Uvarint(uint64(len(m.Hits)))
	for i := range m.Hits {
		u := &m.Hits[i]
		w.Int(u.Index)
		marshalMatches(w, u.Matches)
		w.Int(u.Remaining)
		w.Int(u.ErrCode)
	}
}

func (m *respSubQueryBatch) UnmarshalWire(r *wire.Reader) error {
	total := r.Count(minMatchBytes)
	nhits := r.Count(4) // index, two counts, error code
	if nhits == 0 {
		return r.Err()
	}
	arena := make([]Match, 0, total)
	m.Hits = make([]respSubUnit, nhits)
	for i := range m.Hits {
		u := &m.Hits[i]
		u.Index = r.Int()
		if n := r.Count(minMatchBytes); n > 0 {
			// Three-index slice: a later append by any holder cannot
			// scribble over the next hit's window. A hit past an
			// understated frame-level total gets a slice of its own:
			// regrowing the arena per hit would cost the square of the
			// frame.
			if start := len(arena); start+n <= cap(arena) {
				arena = arena[:start+n]
				u.Matches = arena[start : start+n : start+n]
			} else {
				u.Matches = make([]Match, n)
			}
			for j := range u.Matches {
				unmarshalMatch(r, &u.Matches[j])
			}
		}
		u.Remaining = r.Int()
		u.ErrCode = r.Int()
	}
	return r.Err()
}

func (m msgMigrateChunk) MarshalWire(w *wire.Writer) {
	w.U64(m.NewID)
	w.U64(m.OwnerID)
	m.Cursor.MarshalWire(w)
	w.Int(m.MaxEntries)
	w.Int(m.MaxBytes)
	w.Varint(m.DeadlineUnixNano)
}

func (m *msgMigrateChunk) UnmarshalWire(r *wire.Reader) error {
	m.NewID = r.U64()
	m.OwnerID = r.U64()
	m.Cursor.UnmarshalWire(r)
	m.MaxEntries = r.Int()
	m.MaxBytes = r.Int()
	m.DeadlineUnixNano = r.Varint()
	return r.Err()
}

func (m respMigrateChunk) MarshalWire(w *wire.Writer) {
	w.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].MarshalWire(w)
	}
	w.Bool(m.Done)
}

func (m *respMigrateChunk) UnmarshalWire(r *wire.Reader) error {
	if n := r.Count(store.MinEntryBytes); n > 0 {
		m.Entries = make([]store.Entry, n)
		for i := range m.Entries {
			m.Entries[i].UnmarshalWire(r)
		}
	}
	m.Done = r.Bool()
	return r.Err()
}

func (m msgMigrateCommit) MarshalWire(w *wire.Writer) {
	w.U64(m.NewID)
	w.U64(m.OwnerID)
	w.Varint(m.DeadlineUnixNano)
}

func (m *msgMigrateCommit) UnmarshalWire(r *wire.Reader) error {
	m.NewID = r.U64()
	m.OwnerID = r.U64()
	m.DeadlineUnixNano = r.Varint()
	return r.Err()
}

func (m respMigrateCommit) MarshalWire(w *wire.Writer)          { w.Int(m.Dropped) }
func (m *respMigrateCommit) UnmarshalWire(r *wire.Reader) error { m.Dropped = r.Int(); return r.Err() }

func (m msgSoftPromote) MarshalWire(w *wire.Writer) {
	w.String(m.Instance)
	w.Uvarint(m.Vertex)
	w.U64(m.Gen)
}

func (m *msgSoftPromote) UnmarshalWire(r *wire.Reader) error {
	m.Instance = r.String()
	m.Vertex = r.Uvarint()
	m.Gen = r.U64()
	return r.Err()
}

func (m msgSoftInvalidate) MarshalWire(w *wire.Writer) {
	w.String(m.Instance)
	w.Uvarint(m.Vertex)
	w.U64(m.Gen)
	w.String(m.SetKey)
}

func (m *msgSoftInvalidate) UnmarshalWire(r *wire.Reader) error {
	m.Instance = r.String()
	m.Vertex = r.Uvarint()
	m.Gen = r.U64()
	m.SetKey = r.String()
	return r.Err()
}
