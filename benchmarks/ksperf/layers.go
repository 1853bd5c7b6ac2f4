package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// timeLoop calls fn (which does batch units of work) until at least d
// has passed and returns ns per unit.
func timeLoop(d time.Duration, batch int, fn func()) float64 {
	fn() // warm caches and pools
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		fn()
		n += batch
	}
	return float64(time.Since(start)) / float64(n)
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink uint64

// directTimings measures the layers that have a public function of
// their own, on inputs taken from the workload (source M). budget is
// the time spent per timing.
func directTimings(in *inputs, bodies map[string]*bodySamples, answers [][]keysearch.Match, tmpRoot string, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	w := in.w
	hasher, err := keyword.NewHasher(w.dim, 0)
	if err != nil {
		return nil, err
	}
	cube, err := hypercube.New(w.dim)
	if err != nil {
		return nil, err
	}

	out["keyword.vertex_ns"] = timeLoop(budget, len(in.templates), func() {
		for i := range in.templates {
			sink += uint64(hasher.Vertex(in.templates[i].set))
		}
	})

	roots := make([]hypercube.Vertex, len(in.templates))
	vertices := 0
	for i := range in.templates {
		roots[i] = hasher.Vertex(in.templates[i].set)
		vertices += int(cube.SubcubeSize(roots[i]))
	}
	out["hypercube.levels_ns_per_vertex"] = timeLoop(budget, vertices, func() {
		for _, r := range roots {
			sink += uint64(len(cube.InducedLevels(r)))
		}
	})

	if matches := 0; len(answers) > 0 {
		scratch := make([][]keysearch.Match, len(answers))
		for i, a := range answers {
			scratch[i] = make([]keysearch.Match, len(a))
			matches += len(a)
		}
		out["core.rank_ns_per_match"] = timeLoop(budget, matches, func() {
			for i, a := range answers {
				copy(scratch[i], a)
				keysearch.SortGeneralFirst(scratch[i])
			}
		})
	}

	wireTimings(out, bodies, budget)

	ctrl := admission.New(admission.Policy{MaxInflight: 64, MaxQueue: 64, QueueTimeout: 50 * time.Millisecond}, nil)
	ctx := context.Background()
	out["admission.acquire_ns"] = timeLoop(budget, 1, func() {
		release, err := ctrl.Acquire(ctx, "")
		if err == nil {
			release()
		}
	})

	if w.durable {
		us, err := storeAppend(in, tmpRoot, budget)
		if err != nil {
			return nil, err
		}
		out["store.append_us"] = us
	}
	return out, nil
}

// wireTimings encodes and decodes the message bodies the tracer
// captured through their registered codecs, weighting each message type
// by how often the workload sent it.
func wireTimings(out map[string]float64, bodies map[string]*bodySamples, budget time.Duration) {
	type typed struct {
		codec   *wire.Codec
		samples []any
		encoded [][]byte
		weight  float64
	}
	var types []*typed
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	for _, name := range names {
		b := bodies[name]
		codec, ok := wire.Lookup(b.samples[0])
		if !ok {
			continue
		}
		t := &typed{codec: codec, samples: b.samples, weight: float64(b.count)}
		for _, body := range b.samples {
			wr := wire.GetWriter()
			codec.Encode(wr, body)
			t.encoded = append(t.encoded, append([]byte(nil), wr.Buf...))
			wire.PutWriter(wr)
		}
		types = append(types, t)
		total += t.weight
	}
	if total == 0 {
		return
	}
	per := budget / time.Duration(len(types))
	var enc, dec, size, allocs float64
	for _, t := range types {
		share := t.weight / total
		bytes := 0
		for _, e := range t.encoded {
			bytes += len(e)
		}
		size += share * float64(bytes) / float64(len(t.encoded))

		enc += share * timeLoop(per, len(t.samples), func() {
			for _, body := range t.samples {
				wr := wire.GetWriter()
				t.codec.Encode(wr, body)
				sink += uint64(wr.Len())
				wire.PutWriter(wr)
			}
		})
		dec += share * timeLoop(per, len(t.encoded), func() {
			for _, e := range t.encoded {
				if _, err := t.codec.Decode(wire.NewReader(e)); err != nil {
					sink++
				}
			}
		})
		allocs += share * allocsPerPair(t.codec, t.samples, t.encoded)
	}
	out["wire.encode_ns_per_msg"] = enc
	out["wire.decode_ns_per_msg"] = dec
	out["wire.bytes_per_msg"] = size
	out["wire.allocs_per_msg"] = allocs
}

// allocsPerPair counts heap allocations of one encode plus one decode,
// averaged over the samples.
func allocsPerPair(codec *wire.Codec, samples []any, encoded [][]byte) float64 {
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		for i, body := range samples {
			wr := wire.GetWriter()
			codec.Encode(wr, body)
			wire.PutWriter(wr)
			if _, err := codec.Decode(wire.NewReader(encoded[i])); err != nil {
				sink++
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds*len(samples))
}

// storeAppend times Store.Append under the workload's fsync policy on
// insert records shaped like the corpus.
func storeAppend(in *inputs, tmpRoot string, budget time.Duration) (float64, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		return 0, err
	}
	var appendErr error
	ns := timeLoop(budget, len(in.records), func() {
		for i := range in.records {
			r := &in.records[i]
			if _, err := st.Append(store.Record{Op: store.OpInsert, Instance: "main", Vertex: uint64(i), SetKey: r.set.Key(), ObjectID: r.id}); err != nil {
				appendErr = err
			}
		}
	})
	if err := st.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return 0, fmt.Errorf("store append timing: %w", appendErr)
	}
	return ns / 1e3, nil
}

// counterDelta sums, over every series whose name is prefix or starts
// with prefix+"{", the growth between two snapshots.
func counterDelta(before, after telemetry.Snapshot, prefix string) float64 {
	var d uint64
	for name, v := range after.Counters {
		if name == prefix || strings.HasPrefix(name, prefix+"{") {
			d += v - before.Counters[name]
		}
	}
	return float64(d)
}

func histDelta(before, after telemetry.Snapshot, name string) (sum, count float64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return float64(a.Sum - b.Sum), float64(a.Count - b.Count)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// telemetryDeltas reads the modules' own counters over the traced ops
// (source T).
func telemetryDeltas(before, after telemetry.Snapshot, ops, reads int) map[string]float64 {
	n := float64(ops)
	out := make(map[string]float64)
	hits := counterDelta(before, after, "core_cache_hits_total")
	misses := counterDelta(before, after, "core_cache_misses_total")
	out["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["core.refine_hit_ratio"] = ratio(counterDelta(before, after, "core_refine_hits_total"), hits+misses)
	out["core.soft_serve_ratio"] = ratio(counterDelta(before, after, "core_soft_serves_total"), float64(reads))
	lockWait, _ := histDelta(before, after, "core_server_shard_lock_wait_ns")
	out["core.shard_lock_wait_us_per_op"] = lockWait / 1e3 / n
	out["tcpnet.bytes_per_op"] = counterDelta(before, after, "transport_tcp_bytes_sent_total") / n
	out["tcpnet.failures"] = counterDelta(before, after, "transport_tcp_failures_total")
	out["chord.lookups_per_op"] = counterDelta(before, after, "chord_lookups_total") / n
	hops, lookups := histDelta(before, after, "chord_lookup_hops")
	out["chord.hops_per_lookup"] = ratio(hops, lookups)
	wait, _ := histDelta(before, after, "admission_wait_ns")
	out["admission.wait_us_per_op"] = wait / 1e3 / n
	out["admission.shed"] = counterDelta(before, after, "admission_shed_total")
	out["store.wal_bytes_per_write"] = ratio(counterDelta(before, after, "store_wal_bytes_total"), counterDelta(before, after, "store_wal_appends_total"))
	fsync, _ := histDelta(before, after, "store_fsync_ns")
	out["store.fsync_ms_total"] = fsync / 1e6
	out["store.snapshots"] = counterDelta(before, after, "store_snapshots_total")
	return out
}
