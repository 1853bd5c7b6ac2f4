package chord

import (
	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// Wire type IDs of the Chord RPC set. Package core owns 1–31, chord
// 32–63, invindex 64–95. Never reuse or renumber a live ID.
const (
	wireRPCFindClosest       = 32
	wireRespFindClosest      = 33
	wireRPCGetPredecessor    = 34
	wireRespGetPredecessor   = 35
	wireRPCNotify            = 36
	wireRespOK               = 37
	wireRPCGetSuccessorList  = 38
	wireRespGetSuccessorList = 39
	wireRPCPing              = 40
	wireRPCInsertRef         = 41
	wireRespInsertRef        = 42
	wireRPCDeleteRef         = 43
	wireRespDeleteRef        = 44
	wireRPCReadRefs          = 45
	wireRespReadRefs         = 46
	wireRPCHandoff           = 47
	wireRespHandoff          = 48
	wireRPCDepart            = 49
)

// RegisterTypes binds every Chord RPC message to its wire type ID. It
// must be called once per process before using the TCP transport; it
// is harmless for the in-memory transport.
func RegisterTypes() {
	wire.Register[rpcFindClosest](wireRPCFindClosest)
	wire.Register[respFindClosest](wireRespFindClosest)
	wire.Register[rpcGetPredecessor](wireRPCGetPredecessor)
	wire.Register[respGetPredecessor](wireRespGetPredecessor)
	wire.Register[rpcNotify](wireRPCNotify)
	wire.Register[respOK](wireRespOK)
	wire.Register[rpcGetSuccessorList](wireRPCGetSuccessorList)
	wire.Register[respGetSuccessorList](wireRespGetSuccessorList)
	wire.Register[rpcPing](wireRPCPing)
	wire.Register[rpcInsertRef](wireRPCInsertRef)
	wire.Register[respInsertRef](wireRespInsertRef)
	wire.Register[rpcDeleteRef](wireRPCDeleteRef)
	wire.Register[respDeleteRef](wireRespDeleteRef)
	wire.Register[rpcReadRefs](wireRPCReadRefs)
	wire.Register[respReadRefs](wireRespReadRefs)
	wire.Register[rpcHandoff](wireRPCHandoff)
	wire.Register[respHandoff](wireRespHandoff)
	wire.Register[rpcDepart](wireRPCDepart)
}

// Ring IDs cover the full 64-bit space uniformly (they are hash
// outputs), so fixed 8-byte encoding beats a varint on average.

func marshalNodeInfo(w *wire.Writer, ni *NodeInfo) {
	w.U64(uint64(ni.ID))
	w.String(string(ni.Addr))
}

func unmarshalNodeInfo(r *wire.Reader, ni *NodeInfo) {
	ni.ID = dht.ID(r.U64())
	ni.Addr = transport.Addr(r.String())
}

// minNodeInfoBytes: 8-byte ID + 1-byte empty addr length.
const minNodeInfoBytes = 9

func marshalNodeInfos(w *wire.Writer, nis []NodeInfo) {
	w.Uvarint(uint64(len(nis)))
	for i := range nis {
		marshalNodeInfo(w, &nis[i])
	}
}

func unmarshalNodeInfos(r *wire.Reader) []NodeInfo {
	n := r.Count(minNodeInfoBytes)
	if n == 0 {
		return nil
	}
	nis := make([]NodeInfo, n)
	for i := range nis {
		unmarshalNodeInfo(r, &nis[i])
	}
	return nis
}

func marshalRef(w *wire.Writer, ref *dht.Reference) {
	w.String(ref.ObjectID)
	w.String(string(ref.Holder))
	w.String(ref.Location)
}

func unmarshalRef(r *wire.Reader, ref *dht.Reference) {
	ref.ObjectID = r.String()
	ref.Holder = transport.Addr(r.String())
	ref.Location = r.String()
}

func marshalRefs(w *wire.Writer, refs []dht.Reference) {
	w.Uvarint(uint64(len(refs)))
	for i := range refs {
		marshalRef(w, &refs[i])
	}
}

func unmarshalRefs(r *wire.Reader) []dht.Reference {
	n := r.Count(3) // three length bytes minimum
	if n == 0 {
		return nil
	}
	refs := make([]dht.Reference, n)
	for i := range refs {
		unmarshalRef(r, &refs[i])
	}
	return refs
}

func (m rpcFindClosest) MarshalWire(w *wire.Writer) { w.U64(uint64(m.ID)) }
func (m *rpcFindClosest) UnmarshalWire(r *wire.Reader) error {
	m.ID = dht.ID(r.U64())
	return r.Err()
}

func (m respFindClosest) MarshalWire(w *wire.Writer) {
	w.Bool(m.Done)
	marshalNodeInfo(w, &m.Node)
}

func (m *respFindClosest) UnmarshalWire(r *wire.Reader) error {
	m.Done = r.Bool()
	unmarshalNodeInfo(r, &m.Node)
	return r.Err()
}

func (m rpcGetPredecessor) MarshalWire(w *wire.Writer)          {}
func (m *rpcGetPredecessor) UnmarshalWire(r *wire.Reader) error { return r.Err() }

func (m respGetPredecessor) MarshalWire(w *wire.Writer) {
	w.Bool(m.Known)
	marshalNodeInfo(w, &m.Node)
}

func (m *respGetPredecessor) UnmarshalWire(r *wire.Reader) error {
	m.Known = r.Bool()
	unmarshalNodeInfo(r, &m.Node)
	return r.Err()
}

func (m rpcNotify) MarshalWire(w *wire.Writer) { marshalNodeInfo(w, &m.Candidate) }
func (m *rpcNotify) UnmarshalWire(r *wire.Reader) error {
	unmarshalNodeInfo(r, &m.Candidate)
	return r.Err()
}

func (m respOK) MarshalWire(w *wire.Writer)          {}
func (m *respOK) UnmarshalWire(r *wire.Reader) error { return r.Err() }

func (m rpcGetSuccessorList) MarshalWire(w *wire.Writer)          {}
func (m *rpcGetSuccessorList) UnmarshalWire(r *wire.Reader) error { return r.Err() }

func (m respGetSuccessorList) MarshalWire(w *wire.Writer) { marshalNodeInfos(w, m.Successors) }
func (m *respGetSuccessorList) UnmarshalWire(r *wire.Reader) error {
	m.Successors = unmarshalNodeInfos(r)
	return r.Err()
}

func (m rpcPing) MarshalWire(w *wire.Writer)          {}
func (m *rpcPing) UnmarshalWire(r *wire.Reader) error { return r.Err() }

func (m rpcInsertRef) MarshalWire(w *wire.Writer) { marshalRef(w, &m.Ref) }
func (m *rpcInsertRef) UnmarshalWire(r *wire.Reader) error {
	unmarshalRef(r, &m.Ref)
	return r.Err()
}

func (m respInsertRef) MarshalWire(w *wire.Writer)          { w.Bool(m.First) }
func (m *respInsertRef) UnmarshalWire(r *wire.Reader) error { m.First = r.Bool(); return r.Err() }

func (m rpcDeleteRef) MarshalWire(w *wire.Writer) { marshalRef(w, &m.Ref) }
func (m *rpcDeleteRef) UnmarshalWire(r *wire.Reader) error {
	unmarshalRef(r, &m.Ref)
	return r.Err()
}

func (m respDeleteRef) MarshalWire(w *wire.Writer) {
	w.Bool(m.Found)
	w.Int(m.Remaining)
}

func (m *respDeleteRef) UnmarshalWire(r *wire.Reader) error {
	m.Found = r.Bool()
	m.Remaining = r.Int()
	return r.Err()
}

func (m rpcReadRefs) MarshalWire(w *wire.Writer)          { w.String(m.ObjectID) }
func (m *rpcReadRefs) UnmarshalWire(r *wire.Reader) error { m.ObjectID = r.String(); return r.Err() }

func (m respReadRefs) MarshalWire(w *wire.Writer) {
	w.Bool(m.Found)
	marshalRefs(w, m.Refs)
}

func (m *respReadRefs) UnmarshalWire(r *wire.Reader) error {
	m.Found = r.Bool()
	m.Refs = unmarshalRefs(r)
	return r.Err()
}

func (m rpcHandoff) MarshalWire(w *wire.Writer) { marshalNodeInfo(w, &m.NewNode) }
func (m *rpcHandoff) UnmarshalWire(r *wire.Reader) error {
	unmarshalNodeInfo(r, &m.NewNode)
	return r.Err()
}

func (m respHandoff) MarshalWire(w *wire.Writer) { marshalRefs(w, m.Refs) }
func (m *respHandoff) UnmarshalWire(r *wire.Reader) error {
	m.Refs = unmarshalRefs(r)
	return r.Err()
}

func (m rpcDepart) MarshalWire(w *wire.Writer) {
	marshalNodeInfo(w, &m.Leaver)
	marshalNodeInfo(w, &m.Predecessor)
	marshalNodeInfo(w, &m.Successor)
	marshalRefs(w, m.Refs)
}

func (m *rpcDepart) UnmarshalWire(r *wire.Reader) error {
	unmarshalNodeInfo(r, &m.Leaver)
	unmarshalNodeInfo(r, &m.Predecessor)
	unmarshalNodeInfo(r, &m.Successor)
	m.Refs = unmarshalRefs(r)
	return r.Err()
}
