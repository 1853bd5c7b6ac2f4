// Package tcpnet implements transport.Network over real TCP so the
// same DHT and keyword-index wiring that runs in the in-memory
// simulator can run as separate OS processes (see cmd/ksnode).
//
// Two wire protocols share every listening port:
//
//   - binary (protocol v2, default): hand-rolled length-prefixed
//     frames (package wire) over one persistent connection per peer,
//     multiplexed by request ID, handled by a listener-side worker
//     pool. See frame.go for the layout.
//   - gob (legacy): self-describing gob envelopes, one exclusively
//     owned pooled connection per in-flight RPC, serial handling per
//     connection. Kept behind Config.Wire for staged rollouts and for
//     answer-level equivalence tests against the binary stack.
//
// The server distinguishes the generations by the v2 magic preamble,
// so mixed fleets interoperate; Config.Wire only selects what this
// process sends.
package tcpnet

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Wire mode names accepted by Config.Wire (and the CLIs' -wire flag).
const (
	WireBinary = "binary"
	WireGob    = "gob"
)

// Config tunes a Network. The zero value selects the binary wire
// protocol and a CPU-proportional listener worker pool.
type Config struct {
	// Wire selects the client protocol: WireBinary (default) or
	// WireGob. Servers always accept both.
	Wire string
	// ListenWorkers sizes each listener's decode/handler pool
	// (default: 2×GOMAXPROCS, minimum 4). The pool bounds steady-state
	// handler concurrency; overflow beyond it spills to fresh
	// goroutines so nested RPCs issued by handlers cannot deadlock a
	// saturated pool.
	ListenWorkers int
}

func (c Config) withDefaults() (Config, error) {
	switch c.Wire {
	case "":
		c.Wire = WireBinary
	case WireBinary, WireGob:
	default:
		return c, fmt.Errorf("tcpnet: unknown wire mode %q (want %q or %q)", c.Wire, WireBinary, WireGob)
	}
	if c.ListenWorkers <= 0 {
		c.ListenWorkers = 2 * runtime.GOMAXPROCS(0)
		if c.ListenWorkers < 4 {
			c.ListenWorkers = 4
		}
	}
	return c, nil
}

// envelope types of the legacy gob protocol.
type request struct {
	From string
	Body any
}

type response struct {
	Body any
	Err  string
}

// maxIdlePerDest bounds the idle gob client connections kept per
// destination (the binary protocol keeps one mux per destination
// instead).
const maxIdlePerDest = 4

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
	cfg       Config
	ins       atomic.Pointer[instruments]
	localAddr atomic.Pointer[transport.Addr] // first bound listener; Send's default from

	mu        sync.Mutex
	closed    bool
	idle      map[transport.Addr][]*clientConn // gob: pooled exclusive connections
	muxes     map[transport.Addr]*muxEntry     // binary: one shared mux per peer
	listeners []*listener
}

var _ transport.Network = (*Network)(nil)

// New returns a TCP network with default configuration (binary wire).
func New() *Network {
	n, _ := NewWithConfig(Config{})
	return n
}

// NewWithConfig returns a TCP network tuned by cfg.
func NewWithConfig(cfg Config) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:   cfg,
		idle:  make(map[transport.Addr][]*clientConn),
		muxes: make(map[transport.Addr]*muxEntry),
	}
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

// countingConn tallies wire bytes into per-connection cells. The gob
// codec offers no per-message byte hook, so the per-type accounting
// reads the cells before and after an exchange — exact because gob
// connections are exclusively owned (client) or serial (server).
type countingConn struct {
	net.Conn
	sent, recv atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	nr, err := c.Conn.Read(p)
	c.recv.Add(uint64(nr))
	return nr, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	nw, err := c.Conn.Write(p)
	c.sent.Add(uint64(nw))
	return nw, err
}

// countingRd charges reads that must go through an existing
// bufio.Reader (the server's protocol sniff) to a byte cell.
type countingRd struct {
	r    io.Reader
	cell *atomic.Uint64
}

func (c *countingRd) Read(p []byte) (int, error) {
	nr, err := c.r.Read(p)
	c.cell.Add(uint64(nr))
	return nr, err
}

type clientConn struct {
	conn *countingConn
	enc  *gob.Encoder
	dec  *gob.Decoder
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
	var resp any
	var err error
	if n.cfg.Wire == WireGob {
		resp, err = n.sendGob(ctx, from, to, body)
	} else {
		resp, err = n.sendBinary(ctx, from, to, body)
	}
	if err != nil {
		ins.failures.Inc()
	} else if ins.latency != nil {
		ins.latency.ObserveSince(started)
	}
	return resp, err
}

// retriableSendErr reports whether a failed exchange is worth one
// retry on a fresh connection: only transport-level failures qualify
// (the reused-connection race), never remote application errors or
// the caller's own cancellation.
func retriableSendErr(ctx context.Context, err error) bool {
	return ctx.Err() == nil && errors.Is(err, transport.ErrUnreachable)
}

// sendGob is the legacy client path: one exchange on an exclusively
// owned connection, with one retry when a reused idle connection turns
// out to have been closed by the peer between requests.
func (n *Network) sendGob(ctx context.Context, from, to transport.Addr, body any) (any, error) {
	resp, err, retriable := n.sendOnceGob(ctx, from, to, body, false)
	if err != nil && retriable && retriableSendErr(ctx, err) {
		resp, err, _ = n.sendOnceGob(ctx, from, to, body, true)
	}
	return resp, err
}

// sendOnceGob performs one request/response exchange. retriable
// reports that the failure happened on a reused idle connection before
// any fresh dial was attempted.
func (n *Network) sendOnceGob(ctx context.Context, from, to transport.Addr, body any, fresh bool) (resp any, err error, retriable bool) {
	ins := n.ins.Load()
	cc, reused, err := n.acquire(ctx, to, fresh)
	if err != nil {
		return nil, err, false
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = cc.conn.SetDeadline(deadline)
	} else {
		_ = cc.conn.SetDeadline(time.Time{})
	}
	sent0, recv0 := cc.conn.sent.Load(), cc.conn.recv.Load()
	if err := cc.enc.Encode(&request{From: string(from), Body: body}); err != nil {
		cc.conn.Close()
		return nil, fmt.Errorf("send to %q: %w", to, transport.ErrUnreachable), reused
	}
	var r response
	if err := cc.dec.Decode(&r); err != nil {
		cc.conn.Close()
		return nil, fmt.Errorf("recv from %q: %w", to, transport.ErrUnreachable), reused
	}
	name := fmt.Sprintf("%T", body)
	ins.sentBytes.Add(name, cc.conn.sent.Load()-sent0)
	ins.recvBytes.Add(name, cc.conn.recv.Load()-recv0)
	n.release(to, cc)
	if r.Err != "" {
		return nil, fmt.Errorf("%w: %s", transport.ErrRemote, r.Err), false
	}
	return r.Body, nil, false
}

// acquire returns an exclusively owned gob connection to 'to': an idle
// pooled one (unless fresh is set) or a new dial.
func (n *Network) acquire(ctx context.Context, to transport.Addr, fresh bool) (*clientConn, bool, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, false, transport.ErrClosed
	}
	if !fresh {
		if pool := n.idle[to]; len(pool) > 0 {
			cc := pool[len(pool)-1]
			n.idle[to] = pool[:len(pool)-1]
			n.mu.Unlock()
			return cc, true, nil
		}
	}
	n.mu.Unlock()

	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, false, fmt.Errorf("dial %q: %w", to, transport.ErrUnreachable)
	}
	conn := &countingConn{Conn: raw}
	return &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, false, nil
}

// release returns a healthy gob connection to the idle pool (or closes
// it when the pool is full or the network closed).
func (n *Network) release(to transport.Addr, cc *clientConn) {
	n.mu.Lock()
	if !n.closed && len(n.idle[to]) < maxIdlePerDest {
		n.idle[to] = append(n.idle[to], cc)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	cc.conn.Close()
}

// Close shuts down all listeners, pooled connections and muxes.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	listeners := n.listeners
	idle := n.idle
	muxes := n.muxes
	n.idle = make(map[transport.Addr][]*clientConn)
	n.muxes = make(map[transport.Addr]*muxEntry)
	n.mu.Unlock()

	var firstErr error
	for _, l := range listeners {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, pool := range idle {
		for _, cc := range pool {
			cc.conn.Close()
		}
	}
	for _, e := range muxes {
		if e.mc != nil {
			e.mc.fail(transport.ErrClosed)
		}
	}
	return firstErr
}
