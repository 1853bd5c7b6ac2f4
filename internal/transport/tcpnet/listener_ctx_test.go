package tcpnet

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// Handlers run under a per-listener context that Close cancels, so a
// request-scoped goroutine (a search wave, a maintenance probe) dies
// with the endpoint instead of leaking past it.
func TestListenerCloseCancelsHandlerContext(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	ctxCh := make(chan context.Context, 1)
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, _ transport.Addr, body any) (any, error) {
		ctxCh <- ctx
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if _, err := n.Send(context.Background(), node.Addr(), ping{N: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	hctx := <-ctxCh
	select {
	case <-hctx.Done():
		t.Fatal("handler context done while the listener is still open")
	default:
	}
	if err := node.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-hctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("handler context not cancelled by listener Close")
	}
}

// A handler blocked on its context must be released by Close rather
// than deadlocking the endpoint shutdown.
func TestListenerCloseUnblocksPendingHandler(t *testing.T) {
	registerTestTypes()
	n := New()
	defer n.Close()
	entered := make(chan struct{})
	node, err := n.Bind("127.0.0.1:0", func(ctx context.Context, _ transport.Addr, body any) (any, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		// The response is lost to the shutdown; only the unblocking matters.
		_, _ = n.Send(context.Background(), node.Addr(), ping{N: 1})
	}()
	<-entered
	closeDone := make(chan error, 1)
	go func() { closeDone <- node.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked behind a context-blocked handler")
	}
	select {
	case <-sendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Send never returned after Close")
	}
}

// TestHandlerSeesCallerDeadline: a handler runs under its caller's
// context deadline, to the nanosecond, whether the request is the one
// that dials a fresh mux or rides a warm one; a caller without a
// deadline leaves the handler without one. A deadline already past on
// arrival still reaches the handler, which sees its context expired.
func TestHandlerSeesCallerDeadline(t *testing.T) {
	registerTestTypes()
	srv := New()
	defer srv.Close()
	type seen struct {
		deadline time.Time
		ok       bool
		err      error
	}
	seenCh := make(chan seen, 1)
	node, err := srv.Bind("127.0.0.1:0", func(ctx context.Context, _ transport.Addr, body any) (any, error) {
		dl, ok := ctx.Deadline()
		seenCh <- seen{dl, ok, ctx.Err()}
		return body, nil
	})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	cli := New()
	defer cli.Close()
	send := func(name string, ctx context.Context) seen {
		t.Helper()
		if _, err := cli.Send(ctx, node.Addr(), ping{N: 1}); err != nil {
			t.Fatalf("%s: Send: %v", name, err)
		}
		return <-seenCh
	}

	for _, name := range []string{"fresh mux", "warm mux"} {
		want := time.Now().Add(time.Minute)
		ctx, cancel := context.WithDeadline(context.Background(), want)
		got := send(name, ctx)
		cancel()
		if !got.ok || got.deadline.UnixNano() != want.UnixNano() {
			t.Errorf("%s: handler deadline %v (set %v), want %v", name, got.deadline, got.ok, want)
		}
		if got.err != nil {
			t.Errorf("%s: handler context done early: %v", name, got.err)
		}
	}
	if got := send("no deadline", context.Background()); got.ok {
		t.Errorf("no deadline: handler saw deadline %v, want none", got.deadline)
	}

	// A frame whose deadline passed before it arrived still reaches the
	// handler, under an expired context.
	conn, err := net.Dial("tcp", string(node.Addr()))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	past := time.Now().Add(-time.Second)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	appendHandshake(w, "127.0.0.1:9999")
	if _, err := appendRequestFrame(w, 1, "", true, past, ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(w.Buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(bufio.NewReader(conn), nil); err != nil {
		t.Fatalf("no response to an expired request: %v", err)
	}
	if got := <-seenCh; !got.ok || got.deadline.UnixNano() != past.UnixNano() || got.err != context.DeadlineExceeded {
		t.Errorf("expired on arrival: handler saw deadline %v (set %v), err %v; want %v, DeadlineExceeded", got.deadline, got.ok, got.err, past)
	}
}
