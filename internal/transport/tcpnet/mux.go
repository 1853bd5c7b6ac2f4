package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// muxConn is one persistent connection to a destination, shared by
// every in-flight RPC to that peer: writers interleave request frames
// under wmu, and a single reader goroutine demuxes response frames to
// the waiting callers by request ID.
type muxConn struct {
	net   *Network
	to    transport.Addr
	entry *muxEntry // this mux's slot in net.muxes, dropped by fail
	conn  net.Conn
	// defaultFrom is the sender identity declared in the connection
	// handshake; frames whose From matches it carry a one-byte flag
	// instead of the address.
	defaultFrom transport.Addr

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult
	dead    bool
	err     error
}

type muxResult struct {
	body any
	err  error
}

// muxEntry makes concurrent senders to one destination share a single
// dial: the first caller performs it under once, the rest wait.
type muxEntry struct {
	once sync.Once
	mc   *muxConn
	err  error
}

// mux returns the entry holding the live mux for 'to', dialing on
// first use. wasShared reports that the entry existed before this call
// — a failure on a shared mux may be the reused-connection race (the
// peer closed an idle connection) and is worth one retry on a fresh
// dial.
func (n *Network) mux(ctx context.Context, to transport.Addr) (e *muxEntry, wasShared bool, err error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, false, transport.ErrClosed
	}
	e, ok := n.muxes[to]
	if !ok {
		e = &muxEntry{}
		n.muxes[to] = e
	}
	n.mu.Unlock()

	dialed := false
	e.once.Do(func() {
		dialed = true
		e.mc, e.err = n.dialMux(ctx, to, e)
		if e.err != nil {
			n.dropMux(to, e)
		}
	})
	return e, ok && !dialed, e.err
}

// dropMux removes e from the mux table if it is still the registered
// entry, so the next send re-dials.
func (n *Network) dropMux(to transport.Addr, e *muxEntry) {
	n.mu.Lock()
	if n.muxes[to] == e {
		delete(n.muxes, to)
	}
	n.mu.Unlock()
}

func (n *Network) dialMux(ctx context.Context, to transport.Addr, e *muxEntry) (*muxConn, error) {
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, fmt.Errorf("dial %q: %w", to, transport.ErrUnreachable)
	}
	var defaultFrom transport.Addr
	if a := n.localAddr.Load(); a != nil {
		defaultFrom = *a
	}
	hs := wire.GetWriter()
	appendHandshake(hs, defaultFrom)
	_, werr := raw.Write(hs.Buf)
	wire.PutWriter(hs)
	if werr != nil {
		raw.Close()
		return nil, fmt.Errorf("dial %q: %w", to, transport.ErrUnreachable)
	}
	mc := &muxConn{
		net:         n,
		to:          to,
		entry:       e,
		conn:        raw,
		defaultFrom: defaultFrom,
		pending:     make(map[uint64]chan muxResult),
	}
	go mc.readLoop()
	return mc, nil
}

// replyChans recycles roundTrip's reply channels. Each registered
// channel gets at most one send, from whoever removes it from pending,
// so a channel whose reply was received is empty and unreferenced and
// goes back. One abandoned on any other path (ctx.Done(), a failed
// write) may still get its reply later and is left to the collector.
var replyChans = sync.Pool{New: func() any { return make(chan muxResult, 1) }}

// roundTrip performs one RPC over the mux. Frame writes set a deadline
// from ctx (or none) so a wedged peer cannot block the writer forever
// while holding wmu. The deadline is the caller's, and the connection
// is everyone's: a caller whose deadline ran out while it waited for
// wmu, or whose write timed out before a byte left, gives up with its
// own error and leaves the stream in sync. Only a write that failed
// part-way, or for another reason, kills the mux.
func (mc *muxConn) roundTrip(ctx context.Context, from transport.Addr, body any) (any, error) {
	ins := mc.net.ins.Load()

	ch := replyChans.Get().(chan muxResult)
	mc.mu.Lock()
	if mc.dead {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = ch
	mc.mu.Unlock()

	w := wire.GetWriter()
	c, err := appendRequestFrame(w, id, from, from == mc.defaultFrom, body)
	if err != nil {
		wire.PutWriter(w)
		mc.deregister(id)
		return nil, err
	}
	frameLen := uint64(w.Len())

	mc.wmu.Lock()
	written, werr := 0, ctx.Err()
	if werr == nil {
		deadline, _ := ctx.Deadline() // the zero time, no deadline, when ctx has none
		_ = mc.conn.SetWriteDeadline(deadline)
		if written, werr = mc.conn.Write(w.Buf); errors.Is(werr, os.ErrDeadlineExceeded) {
			werr = context.DeadlineExceeded
		}
	}
	mc.wmu.Unlock()
	wire.PutWriter(w)
	if written == 0 && (errors.Is(werr, context.DeadlineExceeded) || errors.Is(werr, context.Canceled)) {
		mc.deregister(id)
		return nil, werr
	}
	if werr != nil {
		mc.fail(fmt.Errorf("send to %q: %w", mc.to, transport.ErrUnreachable))
		mc.deregister(id)
		mc.mu.Lock()
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	ins.sentBytes.Add(c.Name(), frameLen)

	select {
	case res := <-ch:
		replyChans.Put(ch)
		return res.body, res.err
	case <-ctx.Done():
		mc.deregister(id)
		return nil, ctx.Err()
	}
}

// deregister abandons a pending request (encode failure, ctx cancel).
// A response arriving later is dropped by the read loop.
func (mc *muxConn) deregister(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// fail removes the mux from the network's table, marks it dead and
// fails every pending request. Safe to call multiple times. The slot is
// dropped first, and by the entry the mux was dialed under (readLoop
// can fail before mux() has stored e.mc), so a sender that finds the
// mux dead does not find it in the table again.
func (mc *muxConn) fail(err error) {
	mc.net.dropMux(mc.to, mc.entry)
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.err = err
	pending := mc.pending
	mc.pending = make(map[uint64]chan muxResult)
	mc.mu.Unlock()

	mc.conn.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
}

// readLoop is the demultiplexer: it owns the read side of the
// connection, decodes each response frame and hands the result to the
// caller registered under the frame's request ID. Responses to
// abandoned requests are dropped. Any framing or decode error kills
// the connection — the stream has no way to resynchronize.
func (mc *muxConn) readLoop() {
	ins := mc.net.ins.Load()
	br := bufio.NewReaderSize(mc.conn, 32<<10)
	var buf []byte
	var r wire.Reader
	for {
		frame, err := readFrame(br, buf)
		if err != nil {
			mc.fail(fmt.Errorf("recv from %q: %w", mc.to, transport.ErrUnreachable))
			return
		}
		buf = frame // strings copy into the decode arena; the raw buffer is reusable
		r.Reset(frame)
		d, err := parseFrame(&r, frame)
		if err != nil {
			mc.fail(fmt.Errorf("recv from %q: %v: %w", mc.to, err, transport.ErrUnreachable))
			return
		}
		var res muxResult
		switch d.kind {
		case frameKindResponse:
			res.body = d.body
			ins.recvBytes.Add(d.codec.Name(), uint64(len(frame))+4)
		case frameKindError:
			res.err = fmt.Errorf("%w: %s", transport.ErrRemote, d.errS)
			ins.recvBytes.Add("error", uint64(len(frame))+4)
		default:
			mc.fail(fmt.Errorf("recv from %q: unexpected frame kind %d: %w",
				mc.to, d.kind, transport.ErrUnreachable))
			return
		}
		mc.mu.Lock()
		ch, ok := mc.pending[d.reqID]
		delete(mc.pending, d.reqID)
		mc.mu.Unlock()
		if ok {
			ch <- res
		}
	}
}

// sendBinary performs one RPC over the shared mux, with a single retry
// on a fresh connection when the failure hit a mux that predates this
// call (the peer closed an idle connection). The retry never receives
// the mux that just failed: the entry is dropped before the re-dial,
// whether or not its own fail has got that far.
func (n *Network) sendBinary(ctx context.Context, from, to transport.Addr, body any) (any, error) {
	e, wasShared, err := n.mux(ctx, to)
	if err == nil {
		var resp any
		resp, err = e.mc.roundTrip(ctx, from, body)
		if err == nil || !wasShared || !retriableSendErr(ctx, err) {
			return resp, err
		}
	} else if !wasShared {
		return nil, err
	}
	n.dropMux(to, e)
	e, _, err = n.mux(ctx, to)
	if err != nil {
		return nil, err
	}
	return e.mc.roundTrip(ctx, from, body)
}
