package main

// metricDef names one reported number. BENCHMARK.json lists the same
// names and units (the smoke test checks the two agree) and holds the
// bounds, which -compare reads from there.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the fleet sees, per workload, all
// measured with telemetry off over the plain transport. fail_frac is
// reported beside them (and as failed/attempted on the result line) but
// is not bounded relatively: its bound is 0, absolute.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher"},        // oracle-verified ops completed per window second
	{"p50_us", "us", "lower"},              // median op latency, caller side
	{"p90_us", "us", "lower"},              // 90th percentile op latency
	{"msgs_per_op", "msg/op", "lower"},     // logical messages per read op over a fixed op prefix (the paper's cost)
	{"alloc_kb_per_op", "KiB/op", "lower"}, // bytes allocated by the whole process per op
	{"heap_mb", "MiB", "lower"},            // live heap after a forced GC at the end of the last window
	{"setup_s", "s", "lower"},              // fleet build, ring convergence and publishing the corpus
}

const failFrac = "fail_frac"

// perLayer are the numbers of single layers. Source S is a span of the
// traced run, M a direct timing of the layer's public function on
// inputs taken from the workload, T a delta of the module's own
// telemetry counter over the traced run, C the caller's own samples.
var perLayer = []metricDef{
	{"keyword.vertex_ns", "ns", "lower"},              // M: Hasher.Vertex(K) per query
	{"hypercube.levels_ns_per_vertex", "ns", "lower"}, // M: Cube.InducedLevels(root) per subcube vertex
	{"core.root_self_us", "us", "lower"},              // S: self time of the root's msgTQuery handler per op (admission, root scan, dispatch, merge)
	{"core.scan_self_us_per_vertex", "us", "lower"},   // S: self time of the op's sub-query handlers per vertex contacted
	{"core.insert_self_us", "us", "lower"},            // S: self time of msgInsertEntry handlers per op
	{"core.delete_self_us", "us", "lower"},            // S: self time of msgDeleteEntry handlers per op
	{"core.nodes_per_op", "count", "lower"},           // Stats.NodesContacted per read op
	{"core.rounds_per_op", "count", "lower"},          // Stats.Rounds per read op
	{"core.phys_frames_per_op", "count", "lower"},     // Stats.PhysFrames per read op
	{"core.matches_per_op", "count", "lower"},         // matches returned per read op
	{"core.cache_hit_ratio", "ratio", "higher"},       // T: core_cache_hits_total / (hits + misses)
	{"core.refine_hit_ratio", "ratio", "higher"},      // T: core_refine_hits_total / cache lookups
	{"core.soft_serve_ratio", "ratio", "higher"},      // T: core_soft_serves_total / read ops
	{"core.shard_lock_wait_us_per_op", "us", "lower"}, // T: core_server_shard_lock_wait_ns per op
	{"core.rank_ns_per_match", "ns", "lower"},         // M: SortGeneralFirst on captured answers, per match
	{"wire.encode_ns_per_msg", "ns", "lower"},         // M: Codec.Encode on captured bodies, weighted by message type
	{"wire.decode_ns_per_msg", "ns", "lower"},         // M: Codec.Decode of the same bodies
	{"wire.bytes_per_msg", "B", "lower"},              // M: encoded size per message
	{"wire.allocs_per_msg", "count", "lower"},         // M: heap allocations per encode+decode
	{"tcpnet.rtt_self_us_p50", "us", "lower"},         // S: Send span minus its handler span: encode, mux, listener queue, loopback, decode
	{"tcpnet.rtt_self_us_p99", "us", "lower"},         // S: 99th percentile of the same
	{"tcpnet.sends_per_op", "count", "lower"},         // S: Send spans per op
	{"tcpnet.bytes_per_op", "B", "lower"},             // T: transport_tcp_bytes_sent_total per op
	{"tcpnet.failures", "count", "lower"},             // T: transport_tcp_failures_total
	{"inmem.send_self_us", "us", "lower"},             // S: self time of inmem Send spans per op (expected near 0)
	{"chord.lookups_per_op", "count", "lower"},        // T: chord_lookups_total per op
	{"chord.hops_per_lookup", "count", "lower"},       // T: chord_lookup_hops sum / count
	{"chord.rpc_self_us", "us", "lower"},              // S: self time of chord handlers per op
	{"admission.acquire_ns", "ns", "lower"},           // M: uncontended Controller.Acquire plus release
	{"admission.wait_us_per_op", "us", "lower"},       // T: admission_wait_ns per op
	{"admission.shed", "count", "lower"},              // T: admission_shed_total (must be 0)
	{"store.append_us", "us", "lower"},                // M: Store.Append under fsync=interval
	{"store.wal_bytes_per_write", "B", "lower"},       // T: store_wal_bytes_total / store_wal_appends_total
	{"store.fsync_ms_total", "ms", "lower"},           // T: store_fsync_ns summed over the traced ops
	{"store.snapshots", "count", "lower"},             // T: store_snapshots_total over the traced ops
	{"runtime.gc_cycles", "count", "lower"},           // GC cycles during the measured windows
	{"runtime.gc_pause_ms_total", "ms", "lower"},      // stop-the-world pause during the measured windows
	{"runtime.goroutines_peak", "count", "lower"},     // most goroutines seen during the measured windows
	{"client.p99_us", "us", "lower"},                  // C: 99th percentile op latency (diagnostic, not gated)
	{"client.max_us", "us", "lower"},                  // C: slowest op (diagnostic, not gated)
	{"client.window_spread", "ratio", "lower"},        // C: (max-min)/median of the windows' ops_per_s
	{"trace.overhead_frac", "ratio", "lower"},         // 1 - traced ops/s over untraced one-caller ops/s (must stay < 0.15)
}

// metricValue is one reported number; Windows holds the per-window
// values a median was taken over.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
}
