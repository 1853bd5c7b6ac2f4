package tcpnet

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// FuzzWireDecode fuzzes the v2 frame decoder: arbitrary bytes must
// yield a clean error (never a panic or an unbounded allocation), and
// any frame that does decode must survive a re-encode/re-decode round
// trip unchanged. Seeded with well-formed frames of each kind so the
// fuzzer starts from the interesting part of the input space — among
// them the index protocol's sparse batch response, decoded by core's
// own codec, once well formed and once with hit indices no request
// could have produced (the decoder carries them through unjudged; the
// root rejects the frame). A short run is wired into `make fuzz-smoke`.
func FuzzWireDecode(f *testing.F) {
	registerTestTypes()
	core.RegisterTypes()

	// Well-formed seeds: request, response, error frames.
	seed := func(build func(w *wire.Writer)) {
		w := wire.GetWriter()
		defer wire.PutWriter(w)
		build(w)
		f.Add(append([]byte(nil), w.Buf[4:]...)) // parseFrame sees the bytes past the length prefix
	}
	seed(func(w *wire.Writer) {
		_, _ = appendRequestFrame(w, 1, "127.0.0.1:9999", false, ping{N: 42})
	})
	seed(func(w *wire.Writer) {
		_, _ = appendRequestFrame(w, 7, "", true, ping{N: -1})
	})
	seed(func(w *wire.Writer) {
		_, _ = appendResponseFrame(w, 2, pong{N: -7}, nil)
	})
	seed(func(w *wire.Writer) {
		_, _ = appendResponseFrame(w, 3, nil, errTest)
	})
	// Query-class shaped payloads: a string key plus the trailing
	// (class int, u64 dim mask) pair the core codecs appended for
	// prefix search. Gives the fuzzer a foothold on the new tail.
	seed(func(w *wire.Writer) {
		_, _ = appendRequestFrame(w, 4, "", false, classQry{Key: "kw", Class: 2, Mask: 0x3ff})
	})
	seed(func(w *wire.Writer) {
		_, _ = appendRequestFrame(w, 5, "127.0.0.1:1", true, classQry{})
	})
	seed(func(w *wire.Writer) {
		_, _ = appendResponseFrame(w, 6, classQry{Key: "a b c", Class: 1, Mask: 1<<63 | 1}, nil)
	})
	// A retired type: what a pre-unification peer's pin query looks like.
	f.Add(legacyPinFrame())
	f.Add(sparseBatchFrame(2, 9, 400))
	f.Add(sparseBatchFrame(7, 7, -1, 3)) // repeated, negative, out of order
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := parseTestFrame(data)
		if err != nil {
			return // clean rejection is the expected outcome for noise
		}
		switch d.kind {
		case frameKindError:
			return // error frames carry no payload to round-trip
		case frameKindRequest, frameKindResponse:
		default:
			t.Fatalf("parseFrame accepted unknown kind %d", d.kind)
		}
		if d.codec == nil || d.body == nil {
			t.Fatalf("parseFrame returned no error but codec=%v body=%v", d.codec, d.body)
		}
		// Round trip: re-encode the decoded body and decode it again;
		// the result must be identical.
		w := wire.GetWriter()
		defer wire.PutWriter(w)
		var err2 error
		if d.kind == frameKindRequest {
			_, err2 = appendRequestFrame(w, d.reqID, transport.Addr(d.from), d.fromDefault, d.body)
		} else {
			_, err2 = appendResponseFrame(w, d.reqID, d.body, nil)
		}
		if err2 != nil {
			t.Fatalf("re-encode of decoded %s: %v", d.codec.Name(), err2)
		}
		d2, err := parseTestFrame(w.Buf[4:])
		if err != nil {
			t.Fatalf("re-decode of re-encoded %s: %v", d.codec.Name(), err)
		}
		if d2.reqID != d.reqID || d2.kind != d.kind ||
			d2.from != d.from || d2.fromDefault != d.fromDefault {
			t.Fatalf("header round trip mismatch: %+v vs %+v", d2, d)
		}
		if !reflect.DeepEqual(d2.body, d.body) {
			t.Fatalf("%s body round trip mismatch:\n got %+v\nwant %+v", d.codec.Name(), d2.body, d.body)
		}
	})
}

// FuzzListenerPreamble fuzzes everything a listener reads from a
// connection before and around its first frame — the magic, the
// handshake's default-sender string, the frame length prefix — by
// serving one end of a net.Pipe with the real serveConn. Whatever the
// bytes: no panic, the connection is let go once the peer closes (no
// hang), no handler runs unless the stream opened with the magic, and
// the listener allocates no more than one maximal frame plus one
// maximal handshake address beyond a small multiple of what it was
// actually sent. A short run is wired into `make fuzz-smoke`.
func FuzzListenerPreamble(f *testing.F) {
	registerTestTypes()

	stream := func(from transport.Addr, frames ...func(w *wire.Writer)) []byte {
		w := wire.GetWriter()
		defer wire.PutWriter(w)
		appendHandshake(w, from)
		for _, frame := range frames {
			frame(w)
		}
		return append([]byte(nil), w.Buf...)
	}
	pingFrame := func(w *wire.Writer) { _, _ = appendRequestFrame(w, 1, "", true, ping{N: 42}) }
	f.Add(stream("127.0.0.1:9999", pingFrame))
	f.Add(stream("", pingFrame, pingFrame))
	f.Add(stream("127.0.0.1:9999"))
	f.Add(wireMagic[:])
	f.Add([]byte("KSW1\x00"))
	f.Add(previousGeneration())
	f.Add(gobStream)
	f.Add([]byte{})
	// A handshake address and a frame that each claim more than their
	// limit, and a frame that claims the whole limit and sends nothing.
	f.Add(append(wireMagic[:len(wireMagic):len(wireMagic)], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add(append(stream(""), 0x01, 0x00, 0x00, 0x04))
	f.Add(append(stream(""), 0x00, 0x00, 0x00, 0x04))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		n := New()
		var handled atomic.Int64
		node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
			handled.Add(1)
			return body, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l := node.(*listener)
		cli, srv := net.Pipe()
		served := make(chan struct{})
		l.wg.Add(1)
		go func() {
			l.serveConn(srv)
			close(served)
		}()
		go func() { _, _ = io.Copy(io.Discard, cli) }() // responses, if any
		_, _ = cli.Write(data)                          // returns once the listener took it all or hung up
		cli.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("serveConn still running 10 s after the peer closed (%d input bytes)", len(data))
		}
		n.Close() // waits for every worker, so the counts below are final

		if !bytes.HasPrefix(data, wireMagic[:]) && handled.Load() != 0 {
			t.Fatalf("handler ran %d times on a connection that did not open with the magic", handled.Load())
		}
		runtime.ReadMemStats(&after)
		const slack = 1 << 20 // the listener itself: bufio, worker stacks, the pipe
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxFrame+maxHandshakeAddr+slack+64*len(data)); got > limit {
			t.Fatalf("listener allocated %d B for %d input bytes, want <= %d", got, len(data), limit)
		}
	})
}

// legacyPinFrame is a well-formed request frame of wire type 5 —
// core's dedicated pin request (instance, vertex, set key, client ID,
// relay flag), retired when pin became msgTQuery{Class: ClassPin}. The
// ID is never reassigned, so the frame names a type no codec claims.
func legacyPinFrame() []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Uvarint(9)
	w.Byte(frameKindRequest)
	w.U16(5)
	w.Byte(0) // sender = the connection's default identity
	w.String("main")
	w.Uvarint(5)
	w.String("k1 k2")
	w.String("cli")
	w.Bool(true)
	return append([]byte(nil), w.Buf...)
}

// previousGeneration is a whole stream as a KSW5 peer opens a
// connection — handshake, then one ping request — which differs from
// what this listener serves in the magic alone.
func previousGeneration() []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	appendHandshake(w, "127.0.0.1:9999")
	_, _ = appendRequestFrame(w, 1, "", true, ping{N: 42})
	b := append([]byte(nil), w.Buf...)
	copy(b, "KSW5")
	return b
}

// sparseBatchFrame is a response frame of wire type 12, core's sparse
// batch response, written field by field: a frame-level match total,
// then one hit per given index — the index, one match, a remaining
// count, no error code.
func sparseBatchFrame(indices ...int) []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Uvarint(11)
	w.Byte(frameKindResponse)
	w.U16(12)
	w.Uvarint(uint64(len(indices))) // matches in the frame
	w.Uvarint(uint64(len(indices))) // hits
	for _, index := range indices {
		w.Int(index)
		w.Uvarint(1)
		w.String("object-1")
		w.String("k1 k2")
		w.Uvarint(5)
		w.Int(2)
		w.Int(3) // remaining
		w.Int(0) // error code
	}
	return append([]byte(nil), w.Buf...)
}

// TestSparseBatchSeedsDecode keeps the two hand-written fuzz seeds
// honest: both must parse as core's batch response (a seed the decoder
// rejects teaches the fuzzer nothing about it).
func TestSparseBatchSeedsDecode(t *testing.T) {
	registerTestTypes()
	core.RegisterTypes()
	for _, frame := range [][]byte{sparseBatchFrame(2, 9, 400), sparseBatchFrame(7, 7, -1, 3)} {
		d, err := parseTestFrame(frame)
		if err != nil {
			t.Fatalf("parseFrame: %v", err)
		}
		if d.kind != frameKindResponse || d.codec.ID() != 12 {
			t.Errorf("decoded kind %d, wire type %d, want a response of type 12", d.kind, d.codec.ID())
		}
	}
}

// TestRetiredTypeIDFrameRejected: a frame carrying a retired wire type
// ID decodes to a clean error naming the ID — no panic, and no attempt
// to read its payload as some other message.
func TestRetiredTypeIDFrameRejected(t *testing.T) {
	registerTestTypes()
	_, err := parseTestFrame(legacyPinFrame())
	if err == nil {
		t.Fatal("parseFrame accepted a frame of retired wire type 5")
	}
	if want := "unknown wire type ID 5"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}

// parseTestFrame decodes frame as the client's read loop does, through
// a Reader Reset over it.
func parseTestFrame(frame []byte) (decodedFrame, error) {
	var r wire.Reader
	r.Reset(frame)
	return parseFrame(&r, frame)
}

var errTest = errForFuzz{}

type errForFuzz struct{}

func (errForFuzz) Error() string { return "fuzz: handler failure" }
