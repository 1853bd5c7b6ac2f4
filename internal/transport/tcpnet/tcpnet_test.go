package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/leakcheck"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

type ping struct{ N int }
type pong struct{ N int }

// ping is an echo: a second delivery is harmless, so a failed send of it
// is resent on a fresh connection (TestRedialAfterListenerRestart).
func (ping) Repeatable() bool { return true }

// put is a write: a body without Repeatable, delivered at most once.
type put struct{ N int }

// classQry mirrors the shape of the query-class message extension: a
// string key followed by a trailing (small int, u64 bitmask) pair, the
// exact appended-field layout the core codecs grew for prefix search.
type classQry struct {
	Key   string
	Class int
	Mask  uint64
}

func (m ping) MarshalWire(w *wire.Writer)          { w.Int(m.N) }
func (m *ping) UnmarshalWire(r *wire.Reader) error { m.N = r.Int(); return r.Err() }
func (m pong) MarshalWire(w *wire.Writer)          { w.Int(m.N) }
func (m *pong) UnmarshalWire(r *wire.Reader) error { m.N = r.Int(); return r.Err() }
func (m put) MarshalWire(w *wire.Writer)           { w.Int(m.N) }
func (m *put) UnmarshalWire(r *wire.Reader) error  { m.N = r.Int(); return r.Err() }
func (m classQry) MarshalWire(w *wire.Writer) {
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
	wire.Register[put](59006)
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

// TestServerArenaOwnership: a request frame is its own decode arena, so
// a string a handler keeps from frame N aliases that frame. Frames
// handled by pool workers and by spill goroutines (every worker busy,
// the queue full) are kept; after more frames of the same length on
// the same connection, every kept string must still read as it was
// sent. A read loop that reused its frame buffer would overwrite them.
func TestServerArenaOwnership(t *testing.T) {
	registerTestTypes()
	srv := New()
	defer srv.Close()
	const hold = 1 // classQry.Class of a request whose handler blocks
	var (
		mu      sync.Mutex
		kept    []string
		running atomic.Int64
	)
	release, spilled := make(chan struct{}), make(chan struct{})
	var workers atomic.Int64
	node, err := srv.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		q := body.(classQry)
		if q.Mask != 0 {
			mu.Lock()
			kept = append(kept, q.Key)
			mu.Unlock()
		}
		if q.Class == hold {
			// One handler more than the pool has workers is running, so
			// this frame came through the spill path.
			if running.Add(1) == workers.Load()+1 {
				close(spilled)
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return q, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	l := node.(*listener)
	workers.Store(int64(cap(l.work) / 4))
	cli := New()
	defer cli.Close()
	key := func(tag string, i int) string { return fmt.Sprintf("%s-%06d", tag, i) }
	send := func(q classQry) {
		// A reused frame buffer can also garble a queued frame's request
		// ID, leaving its caller unanswered: fail it, do not hang.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := cli.Send(ctx, node.Addr(), q); err != nil {
			t.Errorf("send %q: %v", q.Key, err)
		}
	}

	for i := 0; i < 10; i++ { // the worker pool, one frame at a time
		send(classQry{Key: key("kept", i), Mask: 1})
	}
	blocked := int(workers.Load()) + cap(l.work) + 4
	var wg sync.WaitGroup
	for i := 10; i < 10+blocked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(classQry{Key: key("kept", i), Class: hold, Mask: 1})
		}(i)
	}
	select {
	case <-spilled:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d handlers running after 10 s, want more than the %d workers", running.Load(), workers.Load())
	}
	close(release)
	wg.Wait()
	for i := 0; i < 200; i++ { // later frames of the same shape, not kept
		send(classQry{Key: key("over", i)})
	}

	mu.Lock()
	defer mu.Unlock()
	if len(kept) != 10+blocked {
		t.Fatalf("handlers kept %d keys, want %d", len(kept), 10+blocked)
	}
	sort.Strings(kept)
	for i, k := range kept {
		if want := key("kept", i); k != want {
			t.Errorf("kept key %d reads %q after later frames, want %q", i, k, want)
		}
	}
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
