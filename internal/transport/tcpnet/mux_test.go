package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// TestWireMuxHammer drives many concurrent RPCs through one
// multiplexed connection and asserts every caller gets exactly its own
// answer back — the mux must never deliver a response to the wrong
// request ID, even interleaved with requests that abandon their IDs
// mid-flight: their handler answers after the caller's deadline, so
// the late response races the abandonment, and a reply channel reused
// while a response may still land in it hands that response to another
// caller. Runs under -race in the chaos suite.
func TestWireMuxHammer(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	// Long enough that most frames are written before the deadline even
	// under -race (a send that times out before it writes gives up alone,
	// TestLateSendKeepsMux).
	const late = 20 * time.Millisecond
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p := body.(ping)
		if p.N < 0 {
			time.Sleep(late + time.Duration(-p.N%4)*100*time.Microsecond)
		}
		return pong{N: p.N}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}

	const (
		workers = 32
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				want := w*perW + i
				if i%17 == 0 {
					// A pre-cancelled request fails at the door, before
					// it takes an ID or writes a byte.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					_, err := n.Send(ctx, node.Addr(), ping{N: -want})
					if err == nil {
						t.Errorf("worker %d: cancelled send succeeded", w)
					}
					continue
				}
				if i%5 == 0 {
					// The handler sleeps past this deadline: the caller
					// abandons its ID with the request in flight. Its
					// late response must be dropped — or, if it beats
					// the deadline after all, be this caller's own.
					ctx, cancel := context.WithTimeout(context.Background(), late)
					got, err := n.Send(ctx, node.Addr(), ping{N: -want})
					cancel()
					if p, ok := got.(pong); err == nil && (!ok || p.N != -want) {
						t.Errorf("worker %d: response %#v, want pong{%d} — cross-delivered frame", w, got, -want)
						return
					} else if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("worker %d: abandoned send: %v, want context.DeadlineExceeded", w, err)
						return
					}
					continue
				}
				// A deadline far beyond the test's pace: a stuck reply
				// fails the caller instead of hanging the hammer.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				got, err := n.Send(ctx, node.Addr(), ping{N: want})
				cancel()
				if err != nil {
					t.Errorf("worker %d send %d: %v", w, i, err)
					return
				}
				if p, ok := got.(pong); !ok || p.N != want {
					t.Errorf("worker %d: response %#v, want pong{%d} — cross-delivered frame", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The whole hammer must have shared one mux.
	n.mu.Lock()
	muxCount := len(n.muxes)
	n.mu.Unlock()
	if muxCount != 1 {
		t.Errorf("mux table has %d entries after hammer, want 1", muxCount)
	}
}

// TestLateSendKeepsMux: a send whose deadline runs out while it waits
// for the mux's write lock gives up with context.DeadlineExceeded and
// writes nothing; the connection stays in sync, so it stays in the mux
// table and the send in flight beside it is answered. The test holds the
// write lock itself past the late send's deadline.
func TestLateSendKeepsMux(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	release := make(chan struct{})
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p := body.(ping)
		if p.N == 1 {
			<-release
		}
		return pong{N: p.N}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if _, err := n.Send(context.Background(), node.Addr(), ping{N: 0}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	n.mu.Lock()
	mc := n.muxes[node.Addr()].mc
	n.mu.Unlock()
	pending := func() int {
		mc.mu.Lock()
		defer mc.mu.Unlock()
		return len(mc.pending)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := n.Send(context.Background(), node.Addr(), ping{N: 1})
		blocked <- err
	}()
	for pending() != 1 {
		time.Sleep(time.Millisecond)
	}
	mc.wmu.Lock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	late := make(chan error, 1)
	go func() {
		_, err := n.Send(ctx, node.Addr(), ping{N: 2})
		late <- err
	}()
	for pending() != 2 {
		time.Sleep(time.Millisecond)
	}
	<-ctx.Done()
	mc.wmu.Unlock()

	if err := <-late; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("late send: %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Errorf("send in flight beside the late one: %v", err)
	}
	n.mu.Lock()
	e := n.muxes[node.Addr()]
	n.mu.Unlock()
	if e == nil || e.mc != mc {
		t.Error("the late send replaced the shared mux")
	}
}

// TestCancelledSendNeverReachesPeer: a Send whose context is already
// done fails with the context's error before any frame is written.
// (Once a frame is out, the response races ctx.Done(), and on loopback
// the response can win: the hammer above caught exactly that as
// "cancelled send succeeded".)
func TestCancelledSendNeverReachesPeer(t *testing.T) {
	registerTestTypes()
	srv := New()
	defer srv.Close()
	var handled atomic.Int64
	node, err := srv.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		handled.Add(1)
		return pong{N: body.(ping).N}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	cli := New()
	defer cli.Close()
	// Warm the connection so the cancelled sends below would find an
	// open mux to write to.
	if _, err := cli.Send(context.Background(), node.Addr(), ping{N: 1}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	before := handled.Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		if _, err := cli.Send(ctx, node.Addr(), ping{N: i}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled send returned %v, want context.Canceled", err)
		}
	}
	// A live request behind them flushes the connection: had any
	// cancelled frame been written, the server would have handled it
	// first.
	if _, err := cli.Send(context.Background(), node.Addr(), ping{N: 2}); err != nil {
		t.Fatalf("follow-up: %v", err)
	}
	if got := handled.Load() - before; got != 1 {
		t.Errorf("server handled %d requests after 50 cancelled sends and one live one, want 1", got)
	}
}

// TestMuxRedialAfterConnDeath: killing the shared connection under the
// mux fails the in-flight attempt, which then transparently retries on
// a freshly dialed mux, and later sends reuse the new connection.
func TestMuxRedialAfterConnDeath(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	block := make(chan struct{})
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p := body.(ping)
		if p.N == 99 {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return pong{N: p.N}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if _, err := n.Send(context.Background(), node.Addr(), ping{N: 1}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	n.mu.Lock()
	if len(n.muxes) != 1 {
		n.mu.Unlock()
		t.Fatalf("expected 1 mux after warmup")
	}
	var mc *muxConn
	for _, e := range n.muxes {
		mc = e.mc
	}
	n.mu.Unlock()

	inflight := make(chan error, 1)
	go func() {
		_, err := n.Send(context.Background(), node.Addr(), ping{N: 99})
		inflight <- err
	}()
	// Wait for the request to be pending, then cut the connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mc.mu.Lock()
		pending := len(mc.pending)
		mc.mu.Unlock()
		if pending > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mc.conn.Close()
	close(block) // let the retried handler invocation answer
	select {
	case err := <-inflight:
		if err != nil {
			t.Errorf("in-flight send after conn death: %v, want success via retry on a fresh mux", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight send never returned after conn death")
	}
	// Later sends reuse the re-dialed mux.
	if _, err := n.Send(context.Background(), node.Addr(), ping{N: 2}); err != nil {
		t.Fatalf("send after conn death: %v", err)
	}
	n.mu.Lock()
	muxCount := len(n.muxes)
	n.mu.Unlock()
	if muxCount != 1 {
		t.Errorf("mux table has %d entries after redial, want 1", muxCount)
	}
}

// TestMuxSingleConnection: sequential and concurrent sends to one
// destination share one persistent connection.
func TestMuxSingleConnection(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.Send(context.Background(), node.Addr(), ping{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	n.mu.Lock()
	muxCount := len(n.muxes)
	n.mu.Unlock()
	if muxCount != 1 {
		t.Errorf("mux table has %d entries, want 1", muxCount)
	}
}

// TestSendRedialsPastDeadMux: a dead mux still registered in the table
// — where a failing mux sits between marking itself dead and
// unregistering, and where one whose reader failed during the dial used
// to stay for good — costs a sender its first attempt and nothing more:
// the retry drops that entry and dials afresh.
func TestSendRedialsPastDeadMux(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	planted := &muxEntry{}
	planted.once.Do(func() {
		planted.mc = &muxConn{
			net: n, to: node.Addr(), entry: planted, dead: true,
			err: fmt.Errorf("recv from %q: %w", node.Addr(), transport.ErrUnreachable),
		}
	})
	n.mu.Lock()
	n.muxes[node.Addr()] = planted
	n.mu.Unlock()

	if _, err := n.Send(context.Background(), node.Addr(), ping{N: 1}); err != nil {
		t.Fatalf("send with a dead mux in the table: %v, want success on a fresh dial", err)
	}
	n.mu.Lock()
	e := n.muxes[node.Addr()]
	n.mu.Unlock()
	if e == nil || e == planted {
		t.Errorf("mux table holds %p after the send, want a fresh entry (planted %p)", e, planted)
	}
}

// TestWireModeRejected: TCPConfig.Wire accepts "" and WireBinary and
// nothing else — "gob" named a protocol that no longer exists.
func TestWireModeRejected(t *testing.T) {
	for _, mode := range []string{"", WireBinary} {
		n, err := NewWithConfig(Config{Wire: mode})
		if err != nil {
			t.Fatalf("NewWithConfig(Wire: %q): %v", mode, err)
		}
		n.Close()
	}
	for _, mode := range []string{"gob", "protobuf"} {
		if _, err := NewWithConfig(Config{Wire: mode}); err == nil {
			t.Errorf("NewWithConfig accepted wire mode %q", mode)
		}
	}
}

// gobStream is what a client of the deleted gob protocol wrote on
// connect, recorded from encoding/gob before the path was removed: the
// type definition of its request envelope, then one request carrying
// tcpnet.ping{N: 21} from "127.0.0.1:4000" — a whole message, which the
// old listener would have decoded and handed to the handler.
var gobStream = []byte{
	0x26, 0x7f, 0x03, 0x01, 0x01, 0x07, 0x72, 0x65, 0x71, 0x75, 0x65, 0x73, 0x74, 0x01,
	0xff, 0x80, 0x00, 0x01, 0x02, 0x01, 0x04, 0x46, 0x72, 0x6f, 0x6d, 0x01, 0x0c, 0x00,
	0x01, 0x04, 0x42, 0x6f, 0x64, 0x79, 0x01, 0x10, 0x00, 0x00, 0x00, 0x37, 0xff, 0x80,
	0x01, 0x0e, 0x31, 0x32, 0x37, 0x2e, 0x30, 0x2e, 0x30, 0x2e, 0x31, 0x3a, 0x34, 0x30,
	0x30, 0x30, 0x01, 0x0b, 0x74, 0x63, 0x70, 0x6e, 0x65, 0x74, 0x2e, 0x70, 0x69, 0x6e,
	0x67, 0xff, 0x81, 0x03, 0x01, 0x01, 0x04, 0x70, 0x69, 0x6e, 0x67, 0x01, 0xff, 0x82,
	0x00, 0x01, 0x01, 0x01, 0x01, 0x4e, 0x01, 0x04, 0x00, 0x00, 0x00, 0x07, 0xff, 0x82,
	0x03, 0x01, 0x2a, 0x00, 0x00,
}

// TestNonMagicPreambleRefused: a connection that does not open with the
// KSW6 magic — a previous generation's included — is closed without a
// byte in reply and without the handler running, and the listener keeps
// serving KSW6 clients afterwards.
func TestNonMagicPreambleRefused(t *testing.T) {
	registerTestTypes()
	srv := New()
	defer srv.Close()
	var handled atomic.Int64
	node, err := srv.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		handled.Add(1)
		return pong{N: body.(ping).N * 2}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	for name, preamble := range map[string][]byte{
		"arbitrary":     []byte("GET / HTTP/1.1\r\n\r\n"),
		"gob":           gobStream,
		"wrong-version": []byte("KSW1\x00"),
		// A KSW5 peer's well-formed handshake and request: its
		// migration page layout differs, so it must be refused at
		// connect.
		"previous-generation": previousGeneration(),
	} {
		conn, err := net.Dial("tcp", string(node.Addr()))
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(preamble); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// EOF or a reset both mean closed; a reply or a timeout does not.
		got, err := io.ReadAll(conn)
		var ne net.Error
		if len(got) != 0 || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s: read %q, %v — want the connection closed with no reply", name, got, err)
		}
		conn.Close()
	}
	if got := handled.Load(); got != 0 {
		t.Errorf("handler ran %d times for refused connections, want 0", got)
	}
	cli := New()
	defer cli.Close()
	got, err := cli.Send(context.Background(), node.Addr(), ping{N: 21})
	if err != nil {
		t.Fatalf("KSW6 client after refusals: %v", err)
	}
	if p, ok := got.(pong); !ok || p.N != 42 {
		t.Errorf("KSW6 client got %#v, want pong{42}", got)
	}
}

// TestBinaryRejectsUnregisteredType: sending a type without a wire
// codec is a descriptive error, not a hang or a panic.
func TestBinaryRejectsUnregisteredType(t *testing.T) {
	registerTestTypes()
	type orphan struct{ X int }
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if _, err := n.Send(context.Background(), node.Addr(), orphan{X: 1}); err == nil {
		t.Fatal("send of unregistered type succeeded")
	} else if want := "no wire codec"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}
