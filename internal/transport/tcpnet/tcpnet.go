// Package tcpnet implements transport.Network over real TCP so the
// same DHT and keyword-index wiring that runs in the in-memory
// simulator can run as separate OS processes (see cmd/ksnode).
//
// It speaks one wire protocol, KSW7: hand-rolled length-prefixed frames
// (package wire) over one persistent connection per peer, multiplexed
// by request ID and handled by a listener-side worker pool. frame.go
// has the layout. A connection that does not open with the KSW7 magic
// is closed before any handler runs.
package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// WireBinary names the one wire protocol (KSW7); see Config.Wire.
const WireBinary = "binary"

// Config is a Network's configuration. It has nothing left to tune:
// each listener sizes its decode/handler pool from GOMAXPROCS
// (2×GOMAXPROCS, minimum 4).
type Config struct {
	// Wire selects nothing: there is one wire protocol. The field and
	// WireBinary remain only because benchmarks/ksperf/fleet.go compiles
	// against them and benchmarks/ changes only in a benchmark-labelled
	// PR (ROADMAP item 7(e) records the removal). It accepts "" or
	// WireBinary and rejects everything else, "gob" included.
	Wire string
}

// instruments is an immutable snapshot of the network's telemetry.
// Listeners and send paths load it once through an atomic pointer —
// never via n.mu, which used to be taken once per accepted connection
// just to read these fields. All fields are nil-safe; the zero
// snapshot (telemetry disabled) simply discards updates.
type instruments struct {
	requests  *telemetry.CounterVec // transport_tcp_requests_total{type}
	handled   *telemetry.CounterVec // transport_tcp_handled_total{type}
	failures  *telemetry.Counter    // transport_tcp_failures_total
	latency   *telemetry.Histogram  // transport_tcp_rpc_duration_ns
	sentBytes *telemetry.CounterVec // transport_tcp_bytes_sent_total{type}
	recvBytes *telemetry.CounterVec // transport_tcp_bytes_recv_total{type}
}

var noInstruments = &instruments{}

// Network is a TCP-backed transport.Network.
type Network struct {
	ins       atomic.Pointer[instruments]
	localAddr atomic.Pointer[transport.Addr] // first bound listener; Send's default from

	mu        sync.Mutex
	closed    bool
	muxes     map[transport.Addr]*muxEntry // one shared mux per peer
	listeners []*listener
}

var _ transport.Network = (*Network)(nil)

// New returns a TCP network with default configuration.
func New() *Network {
	n, _ := NewWithConfig(Config{})
	return n
}

// NewWithConfig returns a TCP network, or an error for an unknown
// Config.Wire.
func NewWithConfig(cfg Config) (*Network, error) {
	if cfg.Wire != "" && cfg.Wire != WireBinary {
		return nil, fmt.Errorf("tcpnet: unknown wire mode %q (want %q)", cfg.Wire, WireBinary)
	}
	n := &Network{muxes: make(map[transport.Addr]*muxEntry)}
	n.ins.Store(noInstruments)
	return n, nil
}

// SetTelemetry wires the network's traffic accounting into reg:
// requests sent and handled per body type, failed exchanges, RPC
// round-trip latency, and wire bytes in each direction per message
// type. Call before Bind/Send so every connection is counted; a nil
// registry disables the instrumentation for activity afterwards.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		n.ins.Store(noInstruments)
		return
	}
	n.ins.Store(&instruments{
		requests:  reg.CounterVec("transport_tcp_requests_total", "type"),
		handled:   reg.CounterVec("transport_tcp_handled_total", "type"),
		failures:  reg.Counter("transport_tcp_failures_total"),
		latency:   reg.Histogram("transport_tcp_rpc_duration_ns", telemetry.DefaultLatencyBuckets),
		sentBytes: reg.CounterVec("transport_tcp_bytes_sent_total", "type"),
		recvBytes: reg.CounterVec("transport_tcp_bytes_recv_total", "type"),
	})
}

// Send delivers body to the node listening at 'to' and returns its
// response. The handler on the far side observes this network's first
// bound listener address as the sender (empty when nothing is bound) —
// use SendFrom to report a different identity.
func (n *Network) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	var from transport.Addr
	if p := n.localAddr.Load(); p != nil {
		from = *p
	}
	return n.SendFrom(ctx, from, to, body)
}

// SendFrom delivers body to 'to', reporting 'from' to the remote
// handler (inmem.Network parity).
func (n *Network) SendFrom(ctx context.Context, from, to transport.Addr, body any) (any, error) {
	ins := n.ins.Load()
	if ins.requests != nil {
		// The counter is nil-safe; formatting its label is not free.
		ins.requests.Inc(fmt.Sprintf("%T", body))
	}
	if err := ctx.Err(); err != nil {
		// The caller has already given up: fail before a connection is
		// acquired, a request ID allocated or a byte written. Past this
		// point a send races its response against ctx.Done(), and on
		// loopback a dead context could still win an answer.
		ins.failures.Inc()
		return nil, err
	}
	var started time.Time
	if ins.latency != nil {
		started = time.Now()
	}
	resp, err := n.sendBinary(ctx, from, to, body)
	if err != nil {
		ins.failures.Inc()
	} else if ins.latency != nil {
		ins.latency.ObserveSince(started)
	}
	return resp, err
}

// retriableSendErr reports whether a failed exchange is worth one
// retry on a fresh connection: only transport-level failures qualify
// (the reused-connection race), never one in doubt, remote application
// errors or the caller's own cancellation.
func retriableSendErr(ctx context.Context, err error) bool {
	return ctx.Err() == nil && errors.Is(err, transport.ErrUnreachable) && !errors.Is(err, transport.ErrInDoubt)
}

// Close shuts down all listeners and muxes.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	listeners := n.listeners
	muxes := n.muxes
	n.muxes = make(map[transport.Addr]*muxEntry)
	n.mu.Unlock()

	var firstErr error
	for _, l := range listeners {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, e := range muxes {
		if e.mc != nil {
			e.mc.fail(transport.ErrClosed)
		}
	}
	return firstErr
}
