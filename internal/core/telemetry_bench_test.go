package core

import (
	"context"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/resilience"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// benchClient builds an 8-dimensional 16-server deployment (optionally
// instrumented) and indexes a deterministic corpus with enough keyword
// overlap that the benchmark query walks a real subhypercube. The
// corpus size keeps the per-vertex scan work representative of the
// paper's load (hundreds of objects per node), so the measured
// telemetry overhead is not inflated by a near-empty index.
func benchClient(b *testing.B, reg *telemetry.Registry, wrap func(transport.Sender) transport.Sender) *Client {
	b.Helper()
	const nServers = 16
	net := inmem.New(1)
	b.Cleanup(func() { net.Close() })
	net.SetTelemetry(reg)
	var sender transport.Sender = net
	if wrap != nil {
		sender = wrap(net)
	}
	hasher := keyword.MustNewHasher(8, 42)
	addrs := make([]transport.Addr, nServers)
	for i := range addrs {
		addrs[i] = transport.Addr("bench-" + strconv.Itoa(i))
	}
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr {
		return addrs[int(uint64(v)%nServers)]
	})
	for i := range addrs {
		srv, err := NewServer(ServerConfig{
			Hasher:    hasher,
			Resolver:  resolver,
			Sender:    sender,
			Telemetry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Bind(addrs[i], srv.Handler); err != nil {
			b.Fatal(err)
		}
	}
	client, err := NewClient(hasher, resolver, sender)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10000; i++ {
		o := Object{
			ID: "obj-" + strconv.Itoa(i),
			Keywords: keyword.NewSet(
				"base", "kw"+strconv.Itoa(i%6), "kw"+strconv.Itoa((i/3)%6),
				"tag"+strconv.Itoa(i%24)),
		}
		if _, err := client.Insert(ctx, o); err != nil {
			b.Fatal(err)
		}
	}
	return client
}

// benchmarkSupersetSearch measures one exhaustive uncached superset
// search per iteration. The query is selective (≈400 matches out of
// 10k objects) so the cost measured is the subcube traversal and
// per-vertex scans — the paths telemetry instruments — rather than
// bulk result copying, which would drown the comparison in GC assist
// for the result slices. Comparing the Noop-registry and instrumented
// runs bounds the telemetry overhead on that hot path.
func benchmarkSupersetSearch(b *testing.B, reg *telemetry.Registry, wrap func(transport.Sender) transport.Sender) {
	client := benchClient(b, reg, wrap)
	q := keyword.NewSet("base", "tag5")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.SupersetSearch(ctx, q, All, SearchOptions{NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSupersetSearchNoopTelemetry(b *testing.B) {
	benchmarkSupersetSearch(b, telemetry.Noop(), nil)
}

func BenchmarkSupersetSearchTelemetry(b *testing.B) {
	benchmarkSupersetSearch(b, telemetry.New(128), nil)
}

// BenchmarkSupersetSearchResilience measures the same instrumented
// search with every send routed through the resilience middleware at
// the default policy — on a healthy network this exercises only the
// middleware's per-send bookkeeping (classifier, breaker lookup), the
// overhead production deployments pay.
func BenchmarkSupersetSearchResilience(b *testing.B) {
	reg := telemetry.New(128)
	benchmarkSupersetSearch(b, reg, func(inner transport.Sender) transport.Sender {
		mw := resilience.Wrap(inner, resilience.DefaultPolicy())
		mw.SetTelemetry(reg)
		return mw
	})
}
