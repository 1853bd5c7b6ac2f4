package transport_test

import (
	"context"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
	"github.com/p2pkeyword/keysearch/internal/transport/tcpnet"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

type fromProbe struct{ X int }

func (m fromProbe) MarshalWire(w *wire.Writer)          { w.Int(m.X) }
func (m *fromProbe) UnmarshalWire(r *wire.Reader) error { m.X = r.Int(); return r.Err() }

func registerProbe() {
	wire.Register[fromProbe](59101)
}

// echoFrom returns the handler-observed sender address as the body.
func echoFrom(got *transport.Addr) transport.Handler {
	return func(ctx context.Context, from transport.Addr, body any) (any, error) {
		*got = from
		return body, nil
	}
}

// Regression test for the empty-From bug: tcpnet.Network.Send used to
// leave the sender blank, so TCP handlers could never learn the
// sender while inmem handlers could (via SendFrom). Both transports
// must now report the sender: tcpnet's Send threads the network's
// bound listener address through automatically, and SendFrom overrides
// it explicitly on both.
func TestHandlerObservedFrom(t *testing.T) {
	registerProbe()

	t.Run("inmem", func(t *testing.T) {
		n := inmem.New(1)
		var got transport.Addr
		if _, err := n.Bind("server", echoFrom(&got)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.SendFrom(context.Background(), "client-7", "server", fromProbe{X: 1}); err != nil {
			t.Fatal(err)
		}
		if got != "client-7" {
			t.Errorf("inmem handler saw from=%q, want %q", got, "client-7")
		}
	})

	t.Run("tcpnet/binary", func(t *testing.T) {
		srv := tcpnet.New()
		defer srv.Close()
		var got transport.Addr
		node, err := srv.Bind("127.0.0.1:0", echoFrom(&got))
		if err != nil {
			t.Fatal(err)
		}

		cli := tcpnet.New()
		defer cli.Close()
		cliNode, err := cli.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
			return body, nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// Plain Send must thread the client's bound listener address.
		if _, err := cli.Send(context.Background(), node.Addr(), fromProbe{X: 2}); err != nil {
			t.Fatal(err)
		}
		if got != cliNode.Addr() {
			t.Errorf("tcpnet handler saw from=%q under Send, want bound addr %q", got, cliNode.Addr())
		}

		// SendFrom overrides the identity explicitly.
		if _, err := cli.SendFrom(context.Background(), "custom-id", node.Addr(), fromProbe{X: 3}); err != nil {
			t.Fatal(err)
		}
		if got != "custom-id" {
			t.Errorf("tcpnet handler saw from=%q under SendFrom, want %q", got, "custom-id")
		}
	})
}
