package main

import "fmt"

// opKind is one public-API call a caller can issue.
type opKind uint8

const (
	opSearch opKind = iota // Peer.Search, superset
	opPin                  // Peer.PinSearch
	opPrefix               // Peer.PrefixSearch
	opUnpublish
	opPublish
)

func (k opKind) String() string {
	return [...]string{"search", "pin", "prefix", "unpublish", "publish"}[k]
}

// workload is one pinned input shape. Names are permanent: results are
// compared across commits by workload name.
type workload struct {
	name string
	why  string

	tcp       bool // loopback sockets (binary wire v2) vs inmem
	peers     int
	dim       int
	objects   int
	templates int
	threshold int
	hot       bool // hot layer on and the result cache consulted
	durable   bool // every peer has a DataDir, fsync=interval
	// cycle is the repeating op-kind pattern; nil means all superset.
	cycle []opKind

	// prefixOps is the number of read ops per caller, counted from the
	// start of the measured phase (op 0 of the caller's stream), that
	// msgs_per_op is taken over.
	prefixOps int
	// traceWarm ops run unrecorded before traceOps ops are traced.
	traceWarm, traceOps int
}

// Result-cache and hot-layer settings of the hot workload. The capacity
// is per peer, in object-ID units.
const (
	hotCacheCapacity = 1024
	hotReplicas      = 2
)

const all = int(^uint(0) >> 1) // keysearch.All

var workloads = []workload{
	{
		name: "deep_inmem",
		why:  "threshold All on r=10 walks every query's whole subcube over inmem: scan, SBT enumeration, wave dispatch and merge do the work, the transport none",
		tcp:  false, peers: 16, dim: 10, objects: 20000, templates: 200, threshold: all,
		prefixOps: 1500, traceWarm: 500, traceOps: 500,
	},
	{
		name: "top10_tcp",
		why:  "top-10 on r=8 over loopback sockets sends many small messages to tiny tables: wire codec, mux, listener workers and decode dominate, scans do not",
		tcp:  true, peers: 8, dim: 8, objects: 2000, templates: 200, threshold: 10,
		prefixOps: 4000, traceWarm: 500, traceOps: 1000,
	},
	{
		name: "hot_tcp",
		why:  "top10_tcp fleet plus the hot layer (CacheCapacity 1024, HotReplicas 2, HotSpread) and a 2000-template log larger than the cache: the hit path dominates, scans and traversal run only on misses",
		tcp:  true, peers: 8, dim: 8, objects: 2000, templates: 2000, threshold: 10, hot: true,
		prefixOps: 50000, traceWarm: 20000, traceOps: 10000,
	},
	{
		name: "rw_durable_tcp",
		why:  "unpublish/publish beside pin, superset and prefix reads on durable peers: the write path, WAL and chord reference updates share tables, locks and wire with reads",
		tcp:  true, peers: 8, dim: 8, objects: 2000, templates: 200, threshold: 10, durable: true,
		// Sorted by cost the kinds fall at pin 0-10 % (~25 us), writes
		// 10-70 % (~85 us), prefix 70-80 % (~290 us), superset 80-100 %
		// (0.7-1.3 ms): p50 sits inside the writes and p90 in the middle of
		// the supersets. (The issue's one superset and two pins put p90 on
		// the prefix/superset boundary, 290 us against 700 us and more.)
		cycle: []opKind{
			opUnpublish, opSearch, opUnpublish, opPin, opUnpublish,
			opPublish, opSearch, opPublish, opPrefix, opPublish,
		},
		prefixOps: 3000, traceWarm: 200, traceOps: 2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
