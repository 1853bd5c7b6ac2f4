package core

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
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
// lookup, table.scan) over a 500-row table, one sub-benchmark per
// shape the scan has a distinct path for:
//
//   - selective: a superset query one row in 500 matches — the
//     deep_inmem shape, where the signature column rejects nearly
//     every row before a string is compared;
//   - dense: a superset query every row matches, so every row survives
//     the signature, is compared and copied out;
//   - pin: the exact set, a binary search on the set key;
//   - prefix: no signature (want == 0), a keyword binary search per row.
//
// Rows carry seven keywords like the corpus generator's median object.
func BenchmarkScanTable(b *testing.B) {
	const rows = 500
	srv := newTableTestServer(b, 0)
	v := tableTestVertex
	var pinKey string
	for i := 0; i < rows; i++ {
		n := strconv.Itoa(i)
		set := keyword.NewSet("hub", "only"+n, "a"+n, "b"+n, "c"+n, "d"+strconv.Itoa(i%7), "e"+strconv.Itoa(i%31))
		if err := srv.insertEntry(DefaultInstance, v, set.Key(), "o-"+n); err != nil {
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
