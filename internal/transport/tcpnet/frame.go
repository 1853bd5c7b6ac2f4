package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// KSW6 framing. A client opens the connection with a 4-byte magic
// preamble; a listener closes any connection that opens with something
// else. The magic is followed by a uvarint-length sender address string
// — the connection's default identity, sent once so the per-request
// cost of Send's implicit From is one flag byte instead of a full
// address per frame.
//
// After the preamble the stream is a sequence of frames:
//
//	u32     length of the remainder (little-endian)
//	uvarint request ID (echoed verbatim on the response)
//	u8      kind: 0 request, 1 response, 2 error response
//	u16     wire type ID (0 on error responses)
//	        requests only: u8 from-flag — 0: the connection's default
//	        sender identity; 1: followed by an inline uvarint-length
//	        sender address string (SendFrom overrides)
//	...     message payload (kind 2: raw error string to end of frame)
//
// Frames from many in-flight RPCs interleave freely in both
// directions; the request ID is the only correlation.
const (
	frameKindRequest  = 0
	frameKindResponse = 1
	frameKindError    = 2

	// maxFrame bounds a single frame so a corrupt or hostile length
	// prefix cannot make a reader allocate without limit.
	maxFrame = 64 << 20

	// maxHandshakeAddr bounds the default-sender string in the
	// connection preamble.
	maxHandshakeAddr = 1 << 10
)

// wireMagic is the connection preamble ("KSW6"). Its last byte is the
// protocol generation and the only version the wire carries: an
// in-place layout change — to the handshake, the frame header or the
// encoding of a registered message — bumps it, so peers of different
// generations refuse each other at connect instead of misparsing
// frames. A new type ID is not a layout change. KSW2 → KSW3: core's
// sub-query messages dropped their dimensions and their replies the
// SBT child list, which the root now generates itself. KSW3 → KSW4:
// core's batch sub-query (type 11) gained a trailing Relay flag and
// became the only sub-query; the per-vertex pair (types 9 and 10) is
// retired. KSW4 → KSW5: core's soft-replica promotion (type 18) lost
// its table entries and Done flag and became a bare announcement.
// KSW5 → KSW6: core's migration pull and page (types 14 and 15) write
// an entry as store.Entry does, vertex before instance; the pull's
// cursor writes its entry only once started, and the page lost its
// cursor, its last entry being the resume point.
var wireMagic = [4]byte{'K', 'S', 'W', '6'}

// appendRequestFrame encodes a request frame for body into w and
// returns the codec (for its type name) — the caller charges
// byte-accounting per type. useDefault elides the sender address in
// favor of the connection's handshake identity. Fails when body's
// type has no registered wire codec.
func appendRequestFrame(w *wire.Writer, reqID uint64, from transport.Addr, useDefault bool, body any) (*wire.Codec, error) {
	c, ok := wire.Lookup(body)
	if !ok {
		return nil, fmt.Errorf("tcpnet: no wire codec for %T (missing RegisterTypes?)", body)
	}
	lenOff := w.Reserve4()
	w.Uvarint(reqID)
	w.Byte(frameKindRequest)
	w.U16(c.ID())
	if useDefault {
		w.Byte(0)
	} else {
		w.Byte(1)
		w.String(string(from))
	}
	c.Encode(w, body)
	w.PatchU32(lenOff, uint32(w.Len()-4))
	return c, nil
}

// appendResponseFrame encodes a success- or error-response frame.
func appendResponseFrame(w *wire.Writer, reqID uint64, body any, herr error) (*wire.Codec, error) {
	lenOff := w.Reserve4()
	w.Uvarint(reqID)
	if herr != nil {
		w.Byte(frameKindError)
		w.U16(0)
		w.Buf = append(w.Buf, herr.Error()...)
		w.PatchU32(lenOff, uint32(w.Len()-4))
		return nil, nil
	}
	c, ok := wire.Lookup(body)
	if !ok {
		// Encode the failure as an error frame so the caller is not
		// left waiting for a response that cannot be marshaled.
		w.Buf = w.Buf[:lenOff]
		return appendResponseFrame(w, reqID, nil,
			fmt.Errorf("tcpnet: no wire codec for response %T", body))
	}
	w.Byte(frameKindResponse)
	w.U16(c.ID())
	c.Encode(w, body)
	w.PatchU32(lenOff, uint32(w.Len()-4))
	return c, nil
}

// appendHandshake encodes the connection preamble: magic plus the
// uvarint-length default sender identity.
func appendHandshake(w *wire.Writer, from transport.Addr) {
	w.Buf = append(w.Buf, wireMagic[:]...)
	w.String(string(from))
}

// readHandshakeFrom reads the default sender identity that follows the
// (already consumed) magic preamble.
func readHandshakeFrom(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxHandshakeAddr {
		return "", fmt.Errorf("tcpnet: handshake address of %d bytes exceeds limit %d", n, maxHandshakeAddr)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readFrame reads one length-prefixed frame into buf (reusing it when
// large enough) and returns the frame bytes past the length prefix.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if n > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodedFrame is one parsed frame.
type decodedFrame struct {
	reqID       uint64
	kind        byte
	codec       *wire.Codec // nil on error frames
	from        string      // requests with an inline sender only
	fromDefault bool        // requests: sender is the connection default
	body        any         // decoded message (error frames: nil)
	errS        string      // error frames: remote error text
}

// parseFrame decodes the frame bytes past the length prefix through r,
// which the caller has just Reset (or ResetOwned) over frame. Arbitrary
// input must error, never panic or over-allocate — the wire.Reader's
// sticky bounds checks guarantee it, and FuzzWireDecode enforces it.
func parseFrame(r *wire.Reader, frame []byte) (decodedFrame, error) {
	var d decodedFrame
	d.reqID = r.Uvarint()
	d.kind = r.Byte()
	typeID := r.U16()
	if err := r.Err(); err != nil {
		return d, err
	}
	switch d.kind {
	case frameKindError:
		d.errS = string(frame[len(frame)-r.Remaining():])
		return d, nil
	case frameKindRequest, frameKindResponse:
	default:
		return d, fmt.Errorf("tcpnet: unknown frame kind %d", d.kind)
	}
	if d.kind == frameKindRequest {
		switch flag := r.Byte(); flag {
		case 0:
			d.fromDefault = true
		case 1:
			d.from = r.String()
		default:
			if r.Err() == nil {
				return d, fmt.Errorf("tcpnet: unknown from-flag %d", flag)
			}
		}
	}
	c, ok := wire.LookupID(typeID)
	if !ok {
		return d, fmt.Errorf("tcpnet: unknown wire type ID %d", typeID)
	}
	d.codec = c
	body, err := c.Decode(r)
	if err != nil {
		return d, err
	}
	if err := r.Finish(); err != nil {
		return d, fmt.Errorf("tcpnet: %s frame: %w", c.Name(), err)
	}
	d.body = body
	return d, nil
}
