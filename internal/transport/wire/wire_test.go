package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.Byte(0xab)
	w.Bool(true)
	w.Bool(false)
	for _, u := range []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64} {
		w.Uvarint(u)
	}
	for _, v := range []int64{0, -1, 1, -64, 63, math.MinInt64, math.MaxInt64} {
		w.Varint(v)
	}
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.String("hello")
	w.String("")
	w.Bytes([]byte{1, 2, 3})

	r := NewReader(w.Buf)
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	for _, u := range []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64} {
		if got := r.Uvarint(); got != u {
			t.Errorf("Uvarint = %d, want %d", got, u)
		}
	}
	for _, v := range []int64{0, -1, 1, -64, 63, math.MinInt64, math.MaxInt64} {
		if got := r.Varint(); got != v {
			t.Errorf("Varint = %d, want %d", got, v)
		}
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := r.String(); got != "\x01\x02\x03" {
		t.Errorf("Bytes = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestTruncationIsSticky feeds every proper prefix of an encoded
// payload to the reader and checks that decoding errors instead of
// panicking, and that the error sticks.
func TestTruncationIsSticky(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.Uvarint(300)
	w.U64(42)
	w.String("payload")
	w.Varint(-9)
	full := append([]byte(nil), w.Buf...)
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uvarint()
		r.U64()
		_ = r.String()
		r.Varint()
		if r.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
		if got := r.Uvarint(); got != 0 {
			t.Fatalf("read after error = %d, want 0", got)
		}
	}
}

// TestCountBoundsAllocations: a corrupt element count larger than the
// remaining bytes must error before any allocation is sized from it.
func TestCountBoundsAllocations(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.Uvarint(1 << 40) // claims ~10^12 elements
	r := NewReader(w.Buf)
	if n := r.Count(4); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err = %v; want 0 and an error", n, r.Err())
	}
}

// TestStringArena: every string of a frame must alias one arena
// allocation, not copy separately.
func TestStringArena(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.String("alpha")
	w.String("beta")
	r := NewReader(w.Buf)
	a, b := r.String(), r.String()
	if a != "alpha" || b != "beta" {
		t.Fatalf("strings = %q, %q", a, b)
	}
	// Both must be slices of the same backing arena string.
	arena := r.arena
	if arena == "" {
		t.Fatal("arena not materialized")
	}
	if !strings.Contains(arena, a) || !strings.Contains(arena, b) {
		t.Fatal("strings do not alias the arena")
	}
	var rr Reader
	allocs := testing.AllocsPerRun(100, func() {
		rr.Reset(w.Buf)
		_ = rr.String()
		_ = rr.String()
	})
	// One arena materialization per frame on a reused Reader; two
	// separate string copies would push this to 2.
	if allocs > 1 {
		t.Errorf("decode of 2 strings allocates %.1f times, want <= 1 (the arena)", allocs)
	}
	// Strings decoded before a Reset point into the arena, not into the
	// buffer, which the caller may then overwrite.
	buf := append([]byte(nil), w.Buf...)
	rr.Reset(buf)
	kept := rr.String()
	for i := range buf {
		buf[i] = 'x'
	}
	if kept != "alpha" {
		t.Errorf("string decoded before Reset reads %q after the buffer was overwritten, want %q", kept, "alpha")
	}
}

// TestResetOwnedAliasesBuffer: a buffer handed over with ResetOwned is
// the arena itself — decoding its strings allocates nothing.
func TestResetOwnedAliasesBuffer(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.String("alpha")
	w.String("beta")
	buf := append([]byte(nil), w.Buf...)
	var r Reader
	allocs := testing.AllocsPerRun(100, func() {
		r.ResetOwned(buf)
		if a, b := r.String(), r.String(); a != "alpha" || b != "beta" || r.Finish() != nil {
			t.Fatalf("strings = %q, %q, err %v", a, b, r.Finish())
		}
	})
	if allocs != 0 {
		t.Errorf("decode of 2 strings from an owned buffer allocates %.1f times, want 0", allocs)
	}
}

// TestNonCanonicalRejected: the Reader accepts only what the Writer
// produces — no overlong varint, no varint past 64 bits, no bool byte
// other than 0 or 1 — so a decoded value re-encodes to its input.
func TestNonCanonicalRejected(t *testing.T) {
	for name, c := range map[string]struct {
		buf  []byte
		read func(r *Reader)
	}{
		"overlong zero":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overlong 5":         {[]byte{0x85, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overlong length":    {[]byte{0x81, 0x00, 'x'}, func(r *Reader) { _ = r.String() }},
		"overlong count":     {[]byte{0x81, 0x00, 0}, func(r *Reader) { r.Count(1) }},
		"10th byte 2":        {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"10th byte overlong": {[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"bool 2":             {[]byte{2}, func(r *Reader) { r.Bool() }},
		"bool 0xff":          {[]byte{0xff}, func(r *Reader) { r.Bool() }},
	} {
		r := NewReader(c.buf)
		c.read(r)
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("%s: %x decoded with err %v, want ErrNonCanonical", name, c.buf, r.Err())
		}
	}
	// The longest canonical varint still decodes.
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	if got := r.Uvarint(); got != math.MaxUint64 || r.Finish() != nil {
		t.Errorf("10-byte MaxUint64 = %d, err %v", got, r.Finish())
	}
}

// TestVarintShiftOverflow: an unterminated varint longer than 10 bytes
// must error rather than loop or accept garbage.
func TestVarintShiftOverflow(t *testing.T) {
	buf := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	r := NewReader(buf)
	r.Uvarint()
	if r.Err() == nil {
		t.Fatal("overlong varint decoded without error")
	}
}

func TestRegistryConflictsPanic(t *testing.T) {
	Register[tmsgA](60001)
	Register[tmsgA](60001) // idempotent re-registration is fine
	mustPanic(t, func() { Register[tmsgB](60001) })
	mustPanic(t, func() { Register[tmsgA](60002) })
	c, ok := Lookup(tmsgA{X: 1})
	if !ok || c.ID() != 60001 {
		t.Fatalf("Lookup = %v, %v", c, ok)
	}
	if c2, ok := LookupID(60001); !ok || c2 != c {
		t.Fatalf("LookupID mismatch")
	}
}

func TestCodecEncodeDecode(t *testing.T) {
	Register[tmsgB](60003)
	c, _ := Lookup(tmsgB{})
	w := GetWriter()
	defer PutWriter(w)
	c.Encode(w, tmsgB{S: "xyz", N: -5})
	got, err := c.Decode(NewReader(w.Buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != (tmsgB{S: "xyz", N: -5}) {
		t.Fatalf("round trip = %+v", got)
	}
}

type tmsgA struct{ X uint64 }

func (m tmsgA) MarshalWire(w *Writer)          { w.Uvarint(m.X) }
func (m *tmsgA) UnmarshalWire(r *Reader) error { m.X = r.Uvarint(); return r.Err() }

type tmsgB struct {
	S string
	N int
}

func (m tmsgB) MarshalWire(w *Writer) { w.String(m.S); w.Int(m.N) }
func (m *tmsgB) UnmarshalWire(r *Reader) error {
	m.S = r.String()
	m.N = r.Int()
	return r.Err()
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
