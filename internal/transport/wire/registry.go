package wire

import (
	"fmt"
	"reflect"
	"sync"
)

// Codec binds one concrete message type to its compact wire type ID
// and its encode/decode functions. Codecs are created by Register and
// immutable afterwards.
type Codec struct {
	id     uint16
	name   string
	typ    reflect.Type
	decode func(r *Reader) (any, error)
}

// ID returns the codec's wire type ID.
func (c *Codec) ID() uint16 { return c.id }

// Name returns the message's Go type name (the %T rendering, e.g.
// "core.msgTQuery"), the label telemetry keys on.
func (c *Codec) Name() string { return c.name }

// Encode marshals body (which must be of the registered type) into w.
// MarshalWire has a value receiver, so the call reads the boxed value
// in place: encoding copies nothing to the heap.
func (c *Codec) Encode(w *Writer, body any) { body.(Marshaler).MarshalWire(w) }

// Decode unmarshals one message from r, returning it as the registered
// concrete value type. The message costs one allocation, the box it
// travels in, plus whatever its UnmarshalWire allocates: it is decoded
// into a pooled value, which is copied into the box and zeroed.
func (c *Codec) Decode(r *Reader) (any, error) { return c.decode(r) }

var (
	regMu  sync.RWMutex
	byID   = make(map[uint16]*Codec)
	byType = make(map[reflect.Type]*Codec)
)

// Register binds type T to the wire type ID. Messages travel as values
// (matching the transport's any-typed envelopes): T implements
// Marshaler with a value receiver, and *T implements Unmarshaler.
//
// Registration is idempotent for the same (id, type) pair — every
// package's RegisterTypes may run multiple times per process — and
// panics on a conflicting binding, which is a build-time mistake
// (two messages claiming one ID, or one message claiming two).
func Register[T Marshaler, PT interface {
	*T
	Unmarshaler
}](id uint16) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	pool := sync.Pool{New: func() any { return new(T) }}
	c := &Codec{
		id:   id,
		name: typ.String(),
		typ:  typ,
		decode: func(r *Reader) (any, error) {
			p := pool.Get().(*T)
			var body any
			err := PT(p).UnmarshalWire(r)
			if err == nil {
				body = *p
			}
			var zero T
			*p = zero
			pool.Put(p)
			return body, err
		},
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := byID[id]; ok {
		if prev.typ != typ {
			panic(fmt.Sprintf("wire: type ID %d already registered to %s, cannot rebind to %s",
				id, prev.name, c.name))
		}
		return
	}
	if prev, ok := byType[typ]; ok {
		panic(fmt.Sprintf("wire: type %s already registered with ID %d, cannot rebind to %d",
			c.name, prev.id, id))
	}
	byID[id] = c
	byType[typ] = c
}

// Lookup returns the codec registered for body's concrete type.
func Lookup(body any) (*Codec, bool) {
	regMu.RLock()
	c, ok := byType[reflect.TypeOf(body)]
	regMu.RUnlock()
	return c, ok
}

// LookupID returns the codec registered under the wire type ID.
func LookupID(id uint16) (*Codec, bool) {
	regMu.RLock()
	c, ok := byID[id]
	regMu.RUnlock()
	return c, ok
}
