package tcpnet

import (
	"context"
	"errors"
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
// request ID, even interleaved with cancelled requests that abandon
// their IDs mid-flight. Runs under -race in the chaos suite.
func TestWireMuxHammer(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p := body.(ping)
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
					// A pre-cancelled request abandons its ID; its late
					// response must be dropped, not misdelivered.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					_, err := n.Send(ctx, node.Addr(), ping{N: -want})
					if err == nil {
						t.Errorf("worker %d: cancelled send succeeded", w)
					}
					continue
				}
				got, err := n.Send(context.Background(), node.Addr(), ping{N: want})
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

// TestCancelledSendNeverReachesPeer: a Send whose context is already
// done fails with the context's error before any frame is written — on
// either wire. (Once a frame is out, the response races ctx.Done(), and
// on loopback the response can win: the hammer above caught exactly
// that as "cancelled send succeeded".)
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
	for _, mode := range []string{WireBinary, WireGob} {
		cli, err := NewWithConfig(Config{Wire: mode})
		if err != nil {
			t.Fatal(err)
		}
		// Warm the connection so the cancelled sends below would find an
		// open mux (binary) or an idle pooled conn (gob) to write to.
		if _, err := cli.Send(context.Background(), node.Addr(), ping{N: 1}); err != nil {
			t.Fatalf("%s warm-up: %v", mode, err)
		}
		before := handled.Load()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 50; i++ {
			if _, err := cli.Send(ctx, node.Addr(), ping{N: i}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled send returned %v, want context.Canceled", mode, err)
			}
		}
		// A live request behind them flushes the connection: had any
		// cancelled frame been written, the server would have handled it
		// first.
		if _, err := cli.Send(context.Background(), node.Addr(), ping{N: 2}); err != nil {
			t.Fatalf("%s follow-up: %v", mode, err)
		}
		if got := handled.Load() - before; got != 1 {
			t.Errorf("%s: server handled %d requests after 50 cancelled sends and one live one, want 1", mode, got)
		}
		cli.Close()
	}
}

// TestMuxRedialAfterConnDeath: killing the shared connection under the
// mux fails the in-flight attempt, which then transparently retries on
// a freshly dialed mux (the reused-connection contract the gob path
// also honors), and later sends reuse the new connection.
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
// destination share one persistent connection (the gob path pools
// per-request exclusive connections instead).
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
	idleCount := len(n.idle[node.Addr()])
	n.mu.Unlock()
	if muxCount != 1 {
		t.Errorf("mux table has %d entries, want 1", muxCount)
	}
	if idleCount != 0 {
		t.Errorf("gob idle pool has %d conns under binary wire, want 0", idleCount)
	}
}

// TestWireModeRejected: an unknown wire mode is a configuration error.
func TestWireModeRejected(t *testing.T) {
	if _, err := NewWithConfig(Config{Wire: "protobuf"}); err == nil {
		t.Fatal("NewWithConfig accepted an unknown wire mode")
	}
}

// TestCrossModeInterop: a gob client and a binary client talk to the
// same listener concurrently — the server sniffs the generation per
// connection.
func TestCrossModeInterop(t *testing.T) {
	registerTestTypes()
	srv := New()
	defer srv.Close()
	node, err := srv.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p := body.(ping)
		return pong{N: p.N * 2}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	for _, mode := range []string{WireBinary, WireGob} {
		cli, err := NewWithConfig(Config{Wire: mode})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cli.Send(context.Background(), node.Addr(), ping{N: 21})
		if err != nil {
			t.Fatalf("%s client: %v", mode, err)
		}
		if p, ok := got.(pong); !ok || p.N != 42 {
			t.Errorf("%s client got %#v, want pong{42}", mode, got)
		}
		cli.Close()
	}
}

// TestBinaryRejectsUnregisteredType: sending a type without a wire
// codec is a descriptive error, not a hang or a panic.
func TestBinaryRejectsUnregisteredType(t *testing.T) {
	registerTestTypes()
	type orphan struct{ X int }
	transport.RegisterType(orphan{})
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
