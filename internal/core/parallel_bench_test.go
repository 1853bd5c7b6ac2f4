package core

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// parallelBenchServer builds one server loaded like a member of a
// 64-peer fleet at r = 10: every one of the 1024 logical vertices
// holds entries ("hub" + filler keywords) so an exhaustive "hub" query
// scans them all.
func parallelBenchServer(b *testing.B, shards, scanPar int) *Server {
	b.Helper()
	const entriesPerVertex, idsPerEntry = 48, 6
	hasher := keyword.MustNewHasher(10, 42)
	srv, err := NewServer(ServerConfig{
		Hasher:          hasher,
		Resolver:        FuncResolver(func(hypercube.Vertex) transport.Addr { return "bench-0" }),
		Sender:          benchSender{},
		Shards:          shards,
		ScanParallelism: scanPar,
	})
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v < 1<<10; v++ {
		for e := 0; e < entriesPerVertex; e++ {
			key := keyword.NewSet("hub", "w"+strconv.Itoa(e)).Key()
			for j := 0; j < idsPerEntry; j++ {
				srv.insertEntry(DefaultInstance, hypercube.Vertex(v),
					key, "o-"+strconv.Itoa(v)+"-"+strconv.Itoa(e)+"-"+strconv.Itoa(j))
			}
		}
	}
	return srv
}

// parallelBenchFrames builds the msgSubQueryBatch frames the members of
// a fleet of the given size receive when an exhaustive r = 10 search
// flattens into a mega-wave: frame p carries the 1024/peers vertices
// with v mod peers == p — 16 units for 64 peers, 128 for 8.
func parallelBenchFrames(peers int) []msgSubQueryBatch {
	queryKey := keyword.NewSet("hub").Key()
	frames := make([]msgSubQueryBatch, peers)
	for p := range frames {
		var units []wireUnit
		for v := p; v < 1<<10; v += peers {
			units = append(units, wireUnit{Vertex: uint64(v), GenDim: -1})
		}
		frames[p] = msgSubQueryBatch{
			Instance: DefaultInstance,
			QueryKey: queryKey,
			Root:     0,
			Limit:    -1,
			Units:    units,
		}
	}
	return frames
}

// runBatchPass answers every frame once, returning the responses and
// the elapsed wall time.
func runBatchPass(srv *Server, frames []msgSubQueryBatch) ([]respSubQueryBatch, time.Duration) {
	out := make([]respSubQueryBatch, len(frames))
	start := time.Now()
	for i := range frames {
		out[i] = srv.subQueryBatch(context.Background(), frames[i])
	}
	return out, time.Since(start)
}

// BenchmarkParallelBatchScan pins the tentpole's payoff on the local
// hot path wave batching created: one physical peer of a 64-peer
// fleet answering its 16-unit share of an exhaustive r = 10 mega-wave,
// frame after frame — and, as a second case, of an 8-peer fleet
// answering 128-unit shares. The sequential baseline (Shards = 1,
// ScanParallelism = 1) is the pre-sharding server; the tuned
// configuration must be at least 2x faster when 4+ cores are
// available, with byte-identical responses — the gate fails the
// bench-smoke CI stage otherwise.
func BenchmarkParallelBatchScan(b *testing.B) {
	baseline := parallelBenchServer(b, 1, 1)
	tuned := parallelBenchServer(b, 0, 0) // library defaults: GOMAXPROCS shards + workers
	for _, peers := range []int{64, 8} {
		b.Run("peers="+strconv.Itoa(peers), func(b *testing.B) {
			benchParallelBatchScan(b, baseline, tuned, parallelBenchFrames(peers))
		})
	}
}

func benchParallelBatchScan(b *testing.B, baseline, tuned *Server, frames []msgSubQueryBatch) {
	// Warm both servers' sorted-order caches and verify equivalence on
	// the warm-up pass.
	respBase, _ := runBatchPass(baseline, frames)
	respTuned, _ := runBatchPass(tuned, frames)
	if !reflect.DeepEqual(respBase, respTuned) {
		b.Fatal("sequential and parallel batch responses differ")
	}

	// Fixed-rep, best-of-k timing outside b.N: the gate needs a
	// speedup ratio, not a per-op figure, and must run even at
	// -benchtime=1x (bench-smoke).
	const reps = 3
	best := func(srv *Server) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			if _, d := runBatchPass(srv, frames); d < min {
				min = d
			}
		}
		return min
	}
	seq := best(baseline)
	par := best(tuned)
	speedup := float64(seq) / float64(par)

	// Gate only where the hardware can deliver: ≥ 4 schedulable threads
	// AND ≥ 4 physical cores (GOMAXPROCS alone can be inflated on a
	// small box, where the speedup is physically unreachable).
	if cores := runtime.GOMAXPROCS(0); cores >= 4 && runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("parallel batch scan speedup %.2fx < 2x on %d cores (seq %v, par %v per pass)",
			speedup, cores, seq, par)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatchPass(tuned, frames)
	}
	// Report after ResetTimer: it deletes user-reported metrics.
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(seq.Nanoseconds()), "seq-ns/pass")
	b.ReportMetric(float64(par.Nanoseconds()), "par-ns/pass")
}
