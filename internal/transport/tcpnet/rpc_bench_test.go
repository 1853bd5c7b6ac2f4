package tcpnet

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// benchQry/benchAns mimic the small-message hot path (a per-node
// superset step and its few-match answer) without dragging the core
// package into the transport benchmark.
type benchQry struct {
	Instance string
	Vertex   uint64
	Key      string
	Limit    int
}

type benchAns struct {
	IDs       []string
	Remaining int
}

func (m benchQry) MarshalWire(w *wire.Writer) {
	w.String(m.Instance)
	w.Uvarint(m.Vertex)
	w.String(m.Key)
	w.Int(m.Limit)
}

func (m *benchQry) UnmarshalWire(r *wire.Reader) error {
	m.Instance = r.String()
	m.Vertex = r.Uvarint()
	m.Key = r.String()
	m.Limit = r.Int()
	return r.Err()
}

func (m benchAns) MarshalWire(w *wire.Writer) {
	w.Uvarint(uint64(len(m.IDs)))
	for _, id := range m.IDs {
		w.String(id)
	}
	w.Int(m.Remaining)
}

func (m *benchAns) UnmarshalWire(r *wire.Reader) error {
	n := r.Count(1)
	if n > 0 {
		m.IDs = make([]string, n)
		for i := range m.IDs {
			m.IDs[i] = r.String()
		}
	}
	m.Remaining = r.Int()
	return r.Err()
}

func registerBenchTypes() {
	wire.Register[benchQry](59003)
	wire.Register[benchAns](59004)
}

// benchRPCPair starts a server plus one client network, with per-type
// byte accounting on the client's registry.
func benchRPCPair(b testing.TB) (cli *Network, addr transport.Addr, reg *telemetry.Registry, closeAll func()) {
	b.Helper()
	srv := New()
	node, err := srv.Bind("127.0.0.1:0", func(ctx context.Context, from transport.Addr, body any) (any, error) {
		q := body.(benchQry)
		return benchAns{IDs: []string{"obj-00017", "obj-00329"}, Remaining: int(q.Vertex % 7)}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cli = New()
	reg = telemetry.New(0)
	cli.SetTelemetry(reg)
	return cli, node.Addr(), reg, func() { cli.Close(); srv.Close() }
}

func benchRPCBody(i int) benchQry {
	return benchQry{
		Instance: "default",
		Vertex:   uint64(i),
		Key:      "8f3a41d2c9b07e55",
		Limit:    128,
	}
}

// clientWireBytes sums the client-side per-type byte counters over the
// exchange's message types.
func clientWireBytes(reg *telemetry.Registry) uint64 {
	var total uint64
	for _, name := range []string{"transport_tcp_bytes_sent_total", "transport_tcp_bytes_recv_total"} {
		vec := reg.CounterVec(name, "type")
		for _, typ := range []string{"tcpnet.benchQry", "tcpnet.benchAns", "error"} {
			total += vec.With(typ).Value()
		}
	}
	return total
}

// TestWireRPCBytesPinned pins what one small exchange costs on a warm
// connection, every protocol byte included (length prefix, request ID,
// kind, type ID, from-flag, payload), as the transport's own per-type
// accounting counts it. The sizes are deterministic; a change here is a
// change to the frame layout (see wireMagic for what that requires).
// The gob wire this replaced moved 210 B for the same exchange
// (results/BENCH_pr8_wire.json is the record of that comparison).
func TestWireRPCBytesPinned(t *testing.T) {
	registerBenchTypes()
	cli, addr, reg, closeAll := benchRPCPair(t)
	defer closeAll()
	ctx := context.Background()
	if _, err := cli.Send(ctx, addr, benchRPCBody(0)); err != nil {
		t.Fatal(err)
	}
	warm := clientWireBytes(reg)
	if _, err := cli.Send(ctx, addr, benchRPCBody(1)); err != nil {
		t.Fatal(err)
	}
	// Request: 4 length + 1 reqID + 1 kind + 2 type + 1 from-flag + 28
	// payload; response: 4 + 1 + 1 + 2 + 22 payload.
	if got, want := clientWireBytes(reg)-warm, uint64(37+30); got != want {
		t.Errorf("one small RPC moved %d B on the wire, want %d", got, want)
	}
}

// TestWireRPCBytesPerCall pins what one warm small RPC allocates, both
// ends in this process and telemetry on: at most 12 allocations and
// 400 B. Encoding copies nothing, a decoded body is boxed once, each
// read loop and listener worker reuses one Reader, a request frame is
// its own string arena and reply channels are pooled.
func TestWireRPCBytesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per goroutine and per sync object; the budget is stated without it")
	}
	registerBenchTypes()
	cli, addr, _, closeAll := benchRPCPair(t)
	defer closeAll()
	ctx := context.Background()
	send := func(i int) {
		if _, err := cli.Send(ctx, addr, benchRPCBody(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		send(i) // dial, then fill the pools and the read loops' buffers
	}
	// Both ends share this process's counters, so a reading over budget
	// is taken twice more and the least of the three counts.
	const runs, maxAllocs, maxBytes = 1000, 12, 400
	allocs, bytes := math.Inf(1), math.Inf(1)
	for try := 0; try < 3 && (allocs > maxAllocs || bytes > maxBytes); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			send(i)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a warm small RPC allocates %.1f times and %.0f B, want <= %d and <= %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}

// BenchmarkWireRPC reports the cost of one small RPC over loopback:
// serial latency as ns/op, and throughput with 16 concurrent senders
// sharing the one mux as RPCs/s. It gates nothing — ksperf's tcpnet.*
// and wire.* layers are the measured record; TestWireRPCBytesPinned
// holds the deterministic part.
func BenchmarkWireRPC(b *testing.B) {
	registerBenchTypes()
	const (
		workers = 16
		perW    = 250
	)
	ctx := context.Background()
	cli, addr, _, closeAll := benchRPCPair(b)
	defer closeAll()
	if _, err := cli.Send(ctx, addr, benchRPCBody(0)); err != nil {
		b.Fatal(err)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := cli.Send(ctx, addr, benchRPCBody(w*perW+i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rps := float64(workers*perW) / time.Since(start).Seconds()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Send(ctx, addr, benchRPCBody(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Report after ResetTimer: it deletes user-reported metrics.
	b.ReportMetric(rps, "RPCs/s")
}
