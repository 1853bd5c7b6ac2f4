package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// responseWriteTimeout bounds a single response-frame write so one
// wedged client cannot park a pool worker forever.
const responseWriteTimeout = 30 * time.Second

type listener struct {
	net     *Network
	ln      net.Listener
	handler transport.Handler
	addr    transport.Addr
	ins     *instruments   // snapshotted at Bind: no n.mu on the accept path
	wg      sync.WaitGroup // accept loop, per-conn read loops, spill goroutines
	workers sync.WaitGroup // the bounded decode/handler pool
	closed  chan struct{}
	ctx     context.Context // cancelled by Close; parent of every handler call
	cancel  context.CancelFunc

	// work feeds the decode/handler pool. Submission never blocks: when
	// every worker is busy the frame is handled on a fresh goroutine
	// instead, because handlers issue nested RPCs (a T_QUERY handler
	// drives a whole search wave) and a strictly bounded pool could
	// distributed-deadlock with every worker waiting on RPCs that are
	// parked in some peer's full queue.
	work chan srvWork

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// srvWork is one request frame awaiting decode + dispatch.
type srvWork struct {
	sc    *srvConn
	frame []byte
}

// srvConn is the server end of one connection: response frames from
// concurrent handlers interleave under wmu.
type srvConn struct {
	conn net.Conn
	wmu  sync.Mutex
	// defaultFrom is the sender identity from the connection handshake,
	// substituted for request frames that carry the default-from flag.
	defaultFrom transport.Addr
}

// Bind starts a TCP listener at addr (host:port; use ":0" for an
// ephemeral port and read the bound address from Node.Addr). The
// first Bind also fixes the network's default sender address reported
// to remote handlers by Send.
func (n *Network) Bind(addr transport.Addr, handler transport.Handler) (transport.Node, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, transport.ErrClosed
	}
	n.mu.Unlock()

	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		return nil, fmt.Errorf("tcpnet: bind %q: %w", addr, err)
	}
	// The decode/handler pool bounds steady-state handler concurrency;
	// overflow beyond it spills to fresh goroutines so nested RPCs issued
	// by handlers cannot deadlock a saturated pool.
	workers := max(4, 2*runtime.GOMAXPROCS(0))
	l := &listener{
		net:     n,
		ln:      ln,
		handler: handler,
		addr:    transport.Addr(ln.Addr().String()),
		ins:     n.ins.Load(),
		closed:  make(chan struct{}),
		work:    make(chan srvWork, workers*4),
		conns:   make(map[net.Conn]struct{}),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	n.mu.Lock()
	n.listeners = append(n.listeners, l)
	n.mu.Unlock()
	n.localAddr.CompareAndSwap(nil, &l.addr)

	for i := 0; i < workers; i++ {
		l.workers.Add(1)
		go l.worker()
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

func (l *listener) Addr() transport.Addr { return l.addr }

func (l *listener) Close() error {
	select {
	case <-l.closed:
		return nil
	default:
	}
	close(l.closed)
	// Stop in-flight handlers: they run under l.ctx, so cancelling here
	// lets blocked handlers return and the wg.Wait below complete
	// instead of leaking goroutines (or deadlocking) during shutdown.
	l.cancel()
	err := l.ln.Close()
	// Unblock read loops parked in Read.
	l.mu.Lock()
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	// Frame submitters (read loops and spill goroutines) must be done
	// before the work channel closes and the pool drains.
	l.wg.Wait()
	close(l.work)
	l.workers.Wait()
	return err
}

func (l *listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn owns one accepted connection. A connection that does not
// open with the KSW6 magic and a well-formed handshake is closed before
// any handler runs: no other protocol shares the port.
func (l *listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	l.mu.Lock()
	if closedLocked := func() bool {
		select {
		case <-l.closed:
			return true
		default:
			return false
		}
	}(); closedLocked {
		l.mu.Unlock()
		return
	}
	l.conns[conn] = struct{}{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 32<<10)
	var magic [len(wireMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != wireMagic {
		return
	}
	defaultFrom, err := readHandshakeFrom(br)
	if err != nil {
		return
	}
	l.serveV2(&srvConn{conn: conn, defaultFrom: transport.Addr(defaultFrom)}, br)
}

// serveV2 is the per-connection read loop of the binary protocol: it
// only splits the stream into frames; decoding and handling run on the
// listener's worker pool so one connection's requests proceed in
// parallel.
func (l *listener) serveV2(sc *srvConn, br *bufio.Reader) {
	for {
		frame, err := readFrame(br, nil) // the frame becomes its decode arena; never reuse it
		if err != nil {
			return
		}
		w := srvWork{sc: sc, frame: frame}
		select {
		case l.work <- w:
		default:
			// Pool saturated: spill onto a fresh goroutine rather than
			// queue behind handlers that may be waiting on nested RPCs.
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				var r wire.Reader
				l.handleFrame(&r, w)
			}()
		}
		select {
		case <-l.closed:
			return
		default:
		}
	}
}

func (l *listener) worker() {
	defer l.workers.Done()
	var r wire.Reader
	for w := range l.work {
		l.handleFrame(&r, w)
	}
}

// handleFrame decodes one request frame through r, runs the handler and
// writes the response frame. The frame is the handler's own (serveV2
// reads each into a fresh buffer and never touches it again), so it is
// the decode arena as it stands: the body's strings alias it.
func (l *listener) handleFrame(r *wire.Reader, w srvWork) {
	ins := l.ins
	r.ResetOwned(w.frame)
	d, err := parseFrame(r, w.frame)
	if err != nil || d.kind != frameKindRequest {
		// Corrupt stream or a response frame sent to a server; the
		// connection cannot be resynchronized.
		if err == nil {
			err = fmt.Errorf("tcpnet: unexpected frame kind %d", d.kind)
		}
		w.sc.conn.Close()
		return
	}
	ins.recvBytes.Add(d.codec.Name(), uint64(len(w.frame))+4)
	ins.handled.Inc(d.codec.Name())

	from := transport.Addr(d.from)
	if d.fromDefault {
		from = w.sc.defaultFrom
	}
	body, herr := l.handler(l.ctx, from, d.body)
	out := wire.GetWriter()
	defer wire.PutWriter(out)
	c, _ := appendResponseFrame(out, d.reqID, body, herr)
	name := "error"
	if c != nil {
		name = c.Name()
	}

	w.sc.wmu.Lock()
	_ = w.sc.conn.SetWriteDeadline(time.Now().Add(responseWriteTimeout))
	_, werr := w.sc.conn.Write(out.Buf)
	w.sc.wmu.Unlock()
	if werr != nil {
		w.sc.conn.Close()
		return
	}
	ins.sentBytes.Add(name, uint64(out.Len()))
}
