package core

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// benchSender satisfies ServerConfig.Sender for benchmarks that never
// leave the local server.
type benchSender struct{}

func (benchSender) Send(context.Context, transport.Addr, any) (any, error) {
	return nil, fmt.Errorf("bench: no network")
}

var benchMatches []Match

// BenchmarkScanTable times one vertex scan (shard read lock, table
// lookup, table.scan) over a 500-entry table, one sub-benchmark per
// shape the scan has a distinct path for:
//
//   - selective: a superset query one entry in 500 matches — the
//     deep_inmem shape, where the signature column rejects nearly
//     every entry before a string is compared;
//   - dense: a superset query every entry matches, so every entry
//     survives the signature, has its key searched and is copied out;
//   - pin: the exact set, a binary search on the set key;
//   - prefix: no signature (a zero want), a key search per entry.
//
// Entries carry seven keywords like the corpus generator's median
// object.
func BenchmarkScanTable(b *testing.B) {
	const rows = 500
	srv := newTableTestServer(b, 0)
	v := tableTestVertex
	var pinKey string
	for i := 0; i < rows; i++ {
		n := strconv.Itoa(i)
		set := keyword.NewSet("hub", "only"+n, "a"+n, "b"+n, "c"+n, "d"+strconv.Itoa(i%7), "e"+strconv.Itoa(i%31))
		if _, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: DefaultInstance, Vertex: uint64(v), SetKey: set.Key(), ObjectID: "o-" + n}, false); err != nil {
			b.Fatal(err)
		}
		if i == rows/2 {
			pinKey = set.Key()
		}
	}
	one := keyword.NewSet("only250")
	hub := keyword.NewSet("hub")
	for _, bc := range []struct {
		name string
		pred queryPred
		want int
	}{
		{"selective", supersetPred(one.Key(), one), 1},
		{"dense", supersetPred(hub.Key(), hub), rows},
		{"pin", predFor(ClassPin, pinKey), 1},
		{"prefix", predFor(ClassPrefix, "only25"), 11}, // only25, only250..only259
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMatches, _, _ = srv.scanVertex(ownedArc{}, DefaultInstance, v, v, bc.pred, 0, -1)
				if len(benchMatches) != bc.want {
					b.Fatalf("scan returned %d matches, want %d", len(benchMatches), bc.want)
				}
			}
		})
	}
}

// BenchmarkSubQueryFrame times what a peer does with one 64-unit
// msgSubQueryBatch of the deep_inmem shape (subQueryBatch: locate,
// ownership test and scan per unit): 64 vertices of 16 seven-keyword
// entries each, and a one-keyword superset query two entries of the
// 1 024 match. It reports ns/unit, and fails if the frame allocates
// more than the query's parse, its two hits' match slices and the hit
// list's two growths — no allocation may be per unit.
func BenchmarkSubQueryFrame(b *testing.B) {
	const units, perVertex = 64, 16
	srv := newTableTestServer(b, 0)
	msg := msgSubQueryBatch{Instance: DefaultInstance, Class: ClassSuperset, Limit: -1}
	for v := 0; v < units; v++ {
		for i := 0; i < perVertex; i++ {
			n := strconv.Itoa(v*perVertex + i)
			words := []string{"a" + n, "b" + n, "c" + n, "d" + n, "e" + n, "f" + strconv.Itoa(i%5), "g" + strconv.Itoa(v%9)}
			if i == 0 && v%32 == 7 {
				words[0] = "needle"
			}
			if _, err := srv.writeEntry(store.OpInsert, store.Entry{Instance: DefaultInstance, Vertex: uint64(v), SetKey: keyword.NewSet(words...).Key(), ObjectID: "o-" + n}, false); err != nil {
				b.Fatal(err)
			}
		}
		msg.Units = append(msg.Units, wireUnit{Vertex: uint64(v)})
	}
	msg.QueryKey = keyword.NewSet("needle").Key()
	ctx := context.Background()
	var resp respSubQueryBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp = srv.subQueryBatch(ctx, msg)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/unit")
	if len(resp.Hits) != 2 {
		b.Fatalf("frame answered %d hits, want 2", len(resp.Hits))
	}
	if allocs := testing.AllocsPerRun(10, func() { srv.subQueryBatch(ctx, msg) }); allocs > 5 {
		b.Fatalf("a %d-unit frame allocates %.0f times, want ≤ 5", units, allocs)
	}
}
