// Package wire is the hand-rolled binary codec behind the TCP
// transport's one protocol (KSW7). The message set of this system is
// small and closed (index protocol, Chord RPCs, the inverted-index
// baseline), so instead of a self-describing, reflection-driven
// encoding each message implements Marshaler/Unmarshaler against a
// pooled buffer Writer and a bounds-checked Reader, and a
// process-global registry maps compact type IDs to concrete types.
//
// Encoding conventions:
//
//   - counts, lengths and small non-negative integers: unsigned varint
//   - signed integers (depths, error codes, deadlines): zigzag varint
//   - full-range 64-bit values (DHT IDs, session IDs): fixed 8-byte LE
//   - strings: uvarint length + raw bytes
//
// The Reader decodes strings out of a single per-frame arena, so a
// batch response with thousands of matches costs at most one
// allocation for all its string data instead of one per field. After
// Reset the first string materializes the whole payload as one Go
// string and every string is a zero-copy slice of it; a buffer the
// caller hands over for good (ResetOwned) is the arena itself, with no
// copy. Either way decoded strings never point into a buffer that is
// reused, so one Reader serves frame after frame.
//
// Decoding accepts only the encodings Writer produces: an overlong
// varint or a bool byte other than 0 or 1 is an error, so a value that
// decodes re-encodes to exactly its input.
package wire

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

var (
	// ErrTruncated reports a read past the end of the payload — a
	// corrupt or truncated frame.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrNonCanonical reports a field Writer would have encoded
	// differently: an overlong or overflowing varint, or a bool byte
	// other than 0 or 1.
	ErrNonCanonical = errors.New("wire: non-canonical encoding")
)

// Marshaler is implemented by messages that can encode themselves into
// a Writer. Encoding into memory cannot fail, so there is no error.
type Marshaler interface {
	MarshalWire(w *Writer)
}

// Unmarshaler is implemented by messages that can decode themselves
// from a Reader. Implementations should use the Reader's sticky error
// (return r.Err()) rather than inventing their own bounds checks.
type Unmarshaler interface {
	UnmarshalWire(r *Reader) error
}

// Writer is an append-only encode buffer. The zero value is ready to
// use; prefer GetWriter/PutWriter to reuse buffers across frames.
type Writer struct {
	Buf []byte
}

var writerPool = sync.Pool{New: func() any { return &Writer{Buf: make([]byte, 0, 512)} }}

// GetWriter returns a reset Writer from the pool.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Buf = w.Buf[:0]
	return w
}

// PutWriter returns w to the pool. The caller must not retain w.Buf.
func PutWriter(w *Writer) {
	const maxRetainedCap = 1 << 20 // don't let one huge frame pin memory
	if cap(w.Buf) <= maxRetainedCap {
		writerPool.Put(w)
	}
}

// Reset truncates the buffer for reuse.
func (w *Writer) Reset() { w.Buf = w.Buf[:0] }

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.Buf) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Buf = append(w.Buf, 1)
	} else {
		w.Buf = append(w.Buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
	for u >= 0x80 {
		w.Buf = append(w.Buf, byte(u)|0x80)
		u >>= 7
	}
	w.Buf = append(w.Buf, byte(u))
}

// Varint appends a signed integer as a zigzag varint.
func (w *Writer) Varint(v int64) {
	w.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// Int appends an int as a zigzag varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// U16 appends a fixed 2-byte little-endian value.
func (w *Writer) U16(v uint16) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8))
}

// U32 appends a fixed 4-byte little-endian value.
func (w *Writer) U32(v uint32) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a fixed 8-byte little-endian value — for full-range IDs
// where a varint would cost more than it saves.
func (w *Writer) U64(v uint64) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// String appends a uvarint length followed by the raw bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Bytes appends a uvarint length followed by the raw bytes.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Reserve4 appends a 4-byte placeholder and returns its offset for a
// later PatchU32 — the frame-length fixup pattern.
func (w *Writer) Reserve4() int {
	off := len(w.Buf)
	w.Buf = append(w.Buf, 0, 0, 0, 0)
	return off
}

// PatchU32 overwrites the 4 bytes at off with v (little-endian).
func (w *Writer) PatchU32(off int, v uint32) {
	w.Buf[off] = byte(v)
	w.Buf[off+1] = byte(v >> 8)
	w.Buf[off+2] = byte(v >> 16)
	w.Buf[off+3] = byte(v >> 24)
}

// Reader decodes a payload with a sticky error: after the first
// malformed or truncated field every subsequent read returns a zero
// value, and Err reports what went wrong. Arbitrary input therefore
// cannot panic or over-allocate — slice counts are validated against
// the bytes actually remaining before any allocation.
type Reader struct {
	buf   []byte
	off   int
	arena string // whole payload as one string, sliced per field; lazy after Reset
	err   error
}

// NewReader returns a Reader over buf, as Reset does.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points r at buf and clears its error, so one Reader decodes
// frame after frame. It does not copy buf up front: the first string
// read copies it once, as the arena, so the caller may reuse buf as
// soon as decoding is done.
func (r *Reader) Reset(buf []byte) { *r = Reader{buf: buf} }

// ResetOwned is Reset for a buffer the caller gives up: buf itself
// becomes the string arena, with no copy. Decoded strings alias buf
// for as long as any of them lives, so from this call on nothing may
// write to buf again — not the caller, and not a pool it came from.
func (r *Reader) ResetOwned(buf []byte) {
	*r = Reader{buf: buf, arena: unsafe.String(unsafe.SliceData(buf), len(buf))}
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.buf)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a one-byte boolean: 0 or 1, any other byte is an error.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.fail(ErrNonCanonical)
	}
	return b == 1
}

// Uvarint reads an unsigned varint in its shortest form: a final byte
// of 0 after a continuation byte, or a 10th byte above 1 (more than 64
// bits), is an error.
func (r *Reader) Uvarint() uint64 {
	var u uint64
	for shift := uint(0); ; shift += 7 {
		if r.off >= len(r.buf) {
			r.fail(ErrTruncated)
			return 0
		}
		b := r.buf[r.off]
		r.off++
		if (b == 0 && shift > 0) || (shift == 63 && b > 1) {
			r.fail(ErrNonCanonical)
			return 0
		}
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u
		}
	}
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// U16 reads a fixed 2-byte little-endian value.
func (r *Reader) U16() uint16 {
	if r.off+2 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := uint16(r.buf[r.off]) | uint16(r.buf[r.off+1])<<8
	r.off += 2
	return v
}

// U32 reads a fixed 4-byte little-endian value.
func (r *Reader) U32() uint32 {
	if r.off+4 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := uint32(r.buf[r.off]) | uint32(r.buf[r.off+1])<<8 |
		uint32(r.buf[r.off+2])<<16 | uint32(r.buf[r.off+3])<<24
	r.off += 4
	return v
}

// U64 reads a fixed 8-byte little-endian value.
func (r *Reader) U64() uint64 {
	if r.off+8 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off:]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	r.off += 8
	return v
}

// Count reads a uvarint element count and validates it against the
// bytes remaining, assuming each element costs at least elemMin bytes.
// Decoders size their slice allocations from it, so a corrupt count
// can never force a huge allocation.
func (r *Reader) Count(elemMin int) int {
	n := r.Uvarint()
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(r.Remaining()/elemMin) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// String reads a uvarint length followed by that many bytes, returned
// as a slice of the frame arena, which every string of the frame
// shares.
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	if r.arena == "" {
		r.arena = string(r.buf)
	}
	s := r.arena[r.off : r.off+n]
	r.off += n
	return s
}

// Finish reports an error if the payload was not fully consumed —
// trailing garbage is as much a framing bug as truncation.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
