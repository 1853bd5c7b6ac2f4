// Package transport defines the message-passing abstraction the DHT and
// the keyword-index layers run on. Two implementations exist:
// package inmem (a deterministic simulated network used by tests and
// the experiment harness) and package tcpnet (multiplexed
// length-prefixed binary frames over real TCP connections for
// multi-process deployments).
package transport

import (
	"context"
	"errors"
	"fmt"
)

// Addr identifies a node endpoint. For the in-memory network it is an
// arbitrary logical name; for TCP it is a host:port string.
type Addr string

// Handler processes one request addressed to a local node and returns
// the response body. Implementations must be safe for concurrent use.
type Handler func(ctx context.Context, from Addr, body any) (any, error)

// Sender delivers requests to remote nodes.
//
// The body belongs to the caller again once Send returns: the caller
// may reuse or overwrite any memory it shares (a pooled slice, say).
// A Sender that reads the body after that point — a leg still in
// flight, a recorder that keeps it — must copy it first (BodyCloner).
type Sender interface {
	// Send delivers body to the node at 'to' and returns its response.
	// The concrete body and response types must have a codec in package
	// wire's registry so that networked transports can encode them.
	Send(ctx context.Context, to Addr, body any) (any, error)
}

// BodyCloner is implemented by bodies that share memory with their
// caller. CloneBody returns an equal body that shares none, for a Sender
// that keeps reading past Send's return; a body without the method is a
// plain value and is kept as it is.
type BodyCloner interface {
	CloneBody() any
}

// RepeatableBody is implemented by bodies a second delivery of which is
// harmless: reads, whose handler changes nothing a caller could count.
// A body's class is the one rule every sender that resends or hedges
// asks, through Repeatable.
type RepeatableBody interface {
	Repeatable() bool
}

// Repeatable reports whether body may be delivered twice. A body without
// the method is a write: it is delivered at most once.
func Repeatable(body any) bool {
	r, ok := body.(RepeatableBody)
	return ok && r.Repeatable()
}

// Node is a bound endpoint that can receive requests.
type Node interface {
	// Addr returns the endpoint's address.
	Addr() Addr
	// Close unbinds the endpoint and releases its resources.
	Close() error
}

// Network is a transport that can both send and host endpoints.
type Network interface {
	Sender
	// Bind registers handler at addr and returns the live endpoint.
	Bind(addr Addr, handler Handler) (Node, error)
}

// Sentinel errors shared by all transports.
var (
	// ErrUnreachable reports that the destination is not bound, is
	// marked failed, or cannot be connected to.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrInDoubt reports a request that was sent in full when the
	// connection failed: its handler may have run. It matches
	// ErrUnreachable through errors.Is, so failover treats it alike, but
	// nothing resends it. A transport returns it only for a body that is
	// not Repeatable; a repeatable one is resent instead.
	ErrInDoubt = fmt.Errorf("%w after the request was sent, which may have been handled", ErrUnreachable)
	// ErrClosed reports use of a closed transport or endpoint.
	ErrClosed = errors.New("transport: closed")
	// ErrRemote wraps an application error returned by a remote handler.
	ErrRemote = errors.New("transport: remote error")
	// ErrUnhandled is returned bare by protocol handlers for message
	// types they do not recognize, letting Mux route one endpoint across
	// several protocol layers. A refusal is the common case on a muxed
	// endpoint — every message of a later layer is refused by each
	// earlier one — so handlers construct nothing for it.
	ErrUnhandled = errors.New("transport: unhandled message type")
)

// Mux combines several protocol handlers behind one endpoint: each
// request is offered to the handlers in order until one does not
// report ErrUnhandled. Only when none takes it is an error built,
// wrapping ErrUnhandled with the message's Go type.
func Mux(handlers ...Handler) Handler {
	return func(ctx context.Context, from Addr, body any) (any, error) {
		for _, h := range handlers {
			resp, err := h(ctx, from, body)
			if !errors.Is(err, ErrUnhandled) {
				return resp, err
			}
		}
		return nil, fmt.Errorf("%w: %T", ErrUnhandled, body)
	}
}
