package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

type ping struct{ N int }
type pong struct{ N int }

// classQry mirrors the shape of the query-class message extension: a
// string key followed by a trailing (small int, u64 bitmask) pair, the
// exact appended-field layout the core codecs grew for prefix search.
type classQry struct {
	Key   string
	Class int
	Mask  uint64
}

func (m *ping) MarshalWire(w *wire.Writer)         { w.Int(m.N) }
func (m *ping) UnmarshalWire(r *wire.Reader) error { m.N = r.Int(); return r.Err() }
func (m *pong) MarshalWire(w *wire.Writer)         { w.Int(m.N) }
func (m *pong) UnmarshalWire(r *wire.Reader) error { m.N = r.Int(); return r.Err() }
func (m *classQry) MarshalWire(w *wire.Writer) {
	w.String(m.Key)
	w.Int(m.Class)
	w.U64(m.Mask)
}
func (m *classQry) UnmarshalWire(r *wire.Reader) error {
	m.Key = r.String()
	m.Class = r.Int()
	m.Mask = r.U64()
	return r.Err()
}

func registerTestTypes() {
	wire.Register[ping](59001)
	wire.Register[pong](59002)
	wire.Register[classQry](59005)
}

func TestRoundTrip(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p, ok := body.(ping)
		if !ok {
			return nil, fmt.Errorf("unexpected body %T", body)
		}
		return pong{N: p.N + 1}, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	got, err := n.Send(context.Background(), node.Addr(), ping{N: 41})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if p, ok := got.(pong); !ok || p.N != 42 {
		t.Errorf("Send = %#v, want pong{42}", got)
	}
}

func TestRemoteError(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return nil, errors.New("handler exploded")
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	_, err = n.Send(context.Background(), node.Addr(), ping{})
	if !errors.Is(err, transport.ErrRemote) {
		t.Errorf("err = %v, want ErrRemote", err)
	}
}

func TestUnreachable(t *testing.T) {
	n := New()
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := n.Send(ctx, "127.0.0.1:1", ping{})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestHandlerCanCallBackIntoSameNetwork(t *testing.T) {
	// Regression test for the shared-connection deadlock: a handler
	// that issues a request to its own listener (through the same
	// Network) must not block on the caller's in-flight connection.
	registerTestTypes()
	n := New()
	defer n.Close()
	var addr transport.Addr
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		p, ok := body.(ping)
		if !ok {
			return nil, fmt.Errorf("unexpected %T", body)
		}
		if p.N > 0 {
			return n.Send(ctx, addr, ping{N: p.N - 1})
		}
		return pong{N: 42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	addr = node.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := n.Send(ctx, addr, ping{N: 3})
	if err != nil {
		t.Fatalf("recursive send: %v", err)
	}
	if p, ok := got.(pong); !ok || p.N != 42 {
		t.Errorf("got %#v", got)
	}
}

func TestRedialAfterListenerRestart(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	addr := node.Addr()
	if _, err := n.Send(context.Background(), addr, ping{N: 1}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	node.Close()
	// Rebind on the same port and verify the shared (now dead) mux is
	// replaced by the retry path.
	if _, err := n.Bind(addr, func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return body, nil
	}); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if _, err := n.Send(context.Background(), addr, ping{N: 2}); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
}

func TestConcurrentSends(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := n.Send(context.Background(), node.Addr(), ping{N: i})
			if err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if p, ok := got.(ping); !ok || p.N != i {
				t.Errorf("send %d returned %#v", i, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	n := New()
	n.Close()
	if _, err := n.Bind("127.0.0.1:0", nil); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("bind after close: %v", err)
	}
	if _, err := n.Send(context.Background(), "127.0.0.1:1", ping{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

// TestSendUninstrumentedAllocatesNothing: with telemetry off a send
// must not pay for telemetry — the request counter's label used to be
// formatted on every send and handed to a nil counter. A send that
// fails at the door (dead context) does nothing else, so it allocates
// nothing at all; with a registry wired the label is counted as before.
func TestSendUninstrumentedAllocatesNothing(t *testing.T) {
	n := New()
	defer n.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var body any = ping{N: 1}
	send := func() {
		if _, err := n.SendFrom(ctx, "a", "127.0.0.1:1", body); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("an uninstrumented send allocates %.0f times before its first byte, want 0", allocs)
	}

	reg := telemetry.New(0)
	n.SetTelemetry(reg)
	send()
	if got := reg.CounterVec("transport_tcp_requests_total", "type").With("tcpnet.ping").Value(); got != 1 {
		t.Errorf(`transport_tcp_requests_total{type="tcpnet.ping"} = %d, want 1`, got)
	}
}
