// Command ksnode runs one keysearch peer as an OS process over TCP,
// with a line-oriented console for publishing and searching. Start a
// first node, then join more from other terminals:
//
//	ksnode -listen 127.0.0.1:7001
//	ksnode -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//
// Console commands:
//
//	publish <id> <kw1> [kw2 ...]   share an object held here
//	unpublish <id> <kw1> [kw2 ...] withdraw it
//	pin <kw1> [kw2 ...]            exact keyword-set search
//	search <n> <kw1> [kw2 ...]     up to n superset matches
//	prefix <n> <pfx>               up to n objects with a keyword
//	                               starting pfx (constrained multicast)
//	refine <n> <base1,base2> <kw1> [kw2 ...]
//	                               narrow a previous search for the
//	                               comma-joined base keywords to this
//	                               superset query without re-traversing
//	fetch <id>                     resolve replica references
//	stats                          local index/cache statistics
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ksnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ksnode", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:0", "address to listen on")
		join        = fs.String("join", "", "address of an existing node (empty = start a new network)")
		dim         = fs.Int("dim", 10, "hypercube dimensionality (must match the network)")
		cache       = fs.Int("cache", 128, "per-node result cache capacity (object IDs)")
		cachePolicy = fs.String("cache-policy", "hot", "result cache policy: hot (popularity-tracked, frequency admission) | fifo (legacy)")
		hotReplicas = fs.Int("hot-replicas", 0, "spread promoted hot roots onto this many extra peers, which answer from their result cache (0 = disabled; needs -cache > 0)")
		hotSpread   = fs.Bool("hot-spread", false, "round-robin one-shot searches for promoted roots across owner and soft replicas")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /traces and /debug/pprof on this address (empty = disabled)")
		resilient   = fs.Bool("resilience", true, "retry/backoff and circuit breakers on outbound RPCs")
		hedgeAfter  = fs.Duration("hedge-after", 0, "duplicate still-unanswered read-only RPCs after this delay (0 = no hedging; requires -resilience)")
		dataDir     = fs.String("data-dir", "", "durable index state directory: WAL + snapshots, replayed on restart (empty = in-memory only)")
		fsyncPolicy = fs.String("fsync", "interval", "WAL flush policy with -data-dir: always | interval | off")
		snapEvery   = fs.Int("snapshot-every", 0, "compact the WAL into a snapshot after this many mutations (0 = default, negative = never)")

		admissionOn  = fs.Bool("admission", false, "shed client-facing load beyond the bounds below with typed overload errors (Retry-After hints)")
		maxInflight  = fs.Int("max-inflight", 64, "admission: concurrent client-facing requests served (requires -admission)")
		maxQueue     = fs.Int("max-queue", 0, "admission: bounded wait queue beyond -max-inflight (0 = 2x max-inflight, -1 = none)")
		queueTimeout = fs.Duration("queue-timeout", 100*time.Millisecond, "admission: longest a request may wait for a slot")
		clientRate   = fs.Float64("client-rate", 0, "admission: per-client sustained request rate, req/s (0 = no fair queuing)")
		clientBurst  = fs.Float64("client-burst", 0, "admission: per-client token-bucket burst (0 = rate/4)")

		migEntries  = fs.Int("migrate-chunk-entries", 0, "entries per inbound migration chunk (0 = default, 512)")
		migThrottle = fs.Duration("migrate-throttle", 0, "pause between migration chunks, bounding transfer bandwidth (0 = back to back)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reg *telemetry.Registry
	var snapPeer *keysearch.Peer // set once the peer exists; read by the final snapshot
	if *metricsAddr != "" {
		reg = telemetry.New(256)
		bound, shutdown, err := serveMetrics(*metricsAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics (traces at /traces, profiles at /debug/pprof/)\n", bound)
		defer func() {
			_ = shutdown()
			// Flush the final counters so a scripted run keeps its
			// telemetry even though the HTTP endpoint is gone.
			fmt.Fprintln(os.Stderr, "final telemetry snapshot:")
			_ = reg.WriteJSON(os.Stderr)
			fmt.Fprintln(os.Stderr)
			if snapPeer != nil {
				writeCacheSnapshot(os.Stderr, snapPeer.CacheSnapshot())
			}
		}()
	}

	keysearch.RegisterTypes()
	transport := keysearch.NewTCPTransport()
	defer transport.Close()
	transport.SetTelemetry(reg)

	var pol *keysearch.ResiliencePolicy
	if *resilient {
		p := keysearch.DefaultResilience()
		p.HedgeDelay = *hedgeAfter
		pol = &p
	}
	var adm *keysearch.AdmissionPolicy
	if *admissionOn {
		adm = &keysearch.AdmissionPolicy{
			MaxInflight:    *maxInflight,
			MaxQueue:       *maxQueue,
			QueueTimeout:   *queueTimeout,
			PerClientRate:  *clientRate,
			PerClientBurst: *clientBurst,
		}
	}
	peer, err := keysearch.NewPeer(transport, keysearch.Addr(*listen), keysearch.Config{
		Dim:                 *dim,
		CacheCapacity:       *cache,
		CachePolicy:         *cachePolicy,
		HotReplicas:         *hotReplicas,
		HotSpread:           *hotSpread,
		MaintenanceInterval: 500 * time.Millisecond,
		Telemetry:           reg,
		Resilience:          pol,
		DataDir:             *dataDir,
		FsyncPolicy:         *fsyncPolicy,
		SnapshotEvery:       *snapEvery,
		Admission:           adm,
		MigrateChunkEntries: *migEntries,
		MigrateThrottle:     *migThrottle,
	})
	if err != nil {
		return err
	}
	defer peer.Close()
	snapPeer = peer
	if *dataDir != "" {
		st := peer.IndexStats()
		fmt.Fprintf(os.Stderr, "durable index in %s (fsync=%s); recovered %d entries\n",
			*dataDir, *fsyncPolicy, st.Entries)
		if ms := peer.MigrationStats(); ms.Recovered > 0 {
			fmt.Fprintf(os.Stderr, "recovered %d in-flight migration cursor(s); resuming after create/join\n",
				ms.Recovered)
		}
	}

	ctx := context.Background()
	if *join == "" {
		peer.Create()
		fmt.Printf("started new network; listening on %s\n", peer.Addr())
	} else {
		joinCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := peer.Join(joinCtx, keysearch.Addr(*join))
		cancel()
		if err != nil {
			return fmt.Errorf("join %s: %w", *join, err)
		}
		fmt.Printf("joined network via %s; listening on %s\n", *join, peer.Addr())
	}

	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		if fields[0] == "quit" || fields[0] == "exit" {
			return nil
		}
		if err := dispatch(ctx, peer, fields); err != nil {
			fmt.Println("error:", err)
		}
		fmt.Print("> ")
	}
	return scanner.Err()
}

// writeCacheSnapshot prints the result cache's policy, occupancy and
// per-instance hit ratios in the stats/final-snapshot format.
func writeCacheSnapshot(w *os.File, snap keysearch.CacheSnapshot) {
	fmt.Fprintf(w, "result cache: policy=%s %d/%d units, %d entries, hit ratio %.3f\n",
		snap.Policy, snap.Units, snap.CapacityUnits, snap.Entries, snap.HitRatio())
	for _, inst := range snap.PerInstance {
		fmt.Fprintf(w, "  instance %s: %d hits / %d misses (ratio %.3f), %d entries / %d units\n",
			inst.Instance, inst.Hits, inst.Misses, inst.HitRatio(), inst.Entries, inst.Units)
	}
}

// serveMetrics starts the observability HTTP endpoint (Prometheus
// /metrics, JSON /traces, net/http/pprof) at addr, returning the bound
// address and a shutdown func.
func serveMetrics(addr string, reg *telemetry.Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener %q: %w", addr, err)
	}
	srv := &http.Server{Handler: telemetry.NewHTTPMux(reg)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

func dispatch(ctx context.Context, peer *keysearch.Peer, fields []string) error {
	opCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	switch fields[0] {
	case "publish":
		if len(fields) < 3 {
			return fmt.Errorf("usage: publish <id> <kw...>")
		}
		obj := keysearch.Object{ID: fields[1], Keywords: keysearch.NewKeywordSet(fields[2:]...)}
		if err := peer.Publish(opCtx, obj, "local://"+fields[1]); err != nil {
			return err
		}
		fmt.Printf("published %s %v\n", obj.ID, obj.Keywords)
	case "unpublish":
		if len(fields) < 3 {
			return fmt.Errorf("usage: unpublish <id> <kw...>")
		}
		obj := keysearch.Object{ID: fields[1], Keywords: keysearch.NewKeywordSet(fields[2:]...)}
		if err := peer.Unpublish(opCtx, obj, "local://"+fields[1]); err != nil {
			return err
		}
		fmt.Printf("unpublished %s\n", obj.ID)
	case "pin":
		if len(fields) < 2 {
			return fmt.Errorf("usage: pin <kw...>")
		}
		ids, stats, err := peer.PinSearch(opCtx, keysearch.NewKeywordSet(fields[1:]...))
		if err != nil {
			return err
		}
		fmt.Printf("%v (%d messages)\n", ids, stats.Messages)
	case "search":
		if len(fields) < 3 {
			return fmt.Errorf("usage: search <n> <kw...>")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return fmt.Errorf("bad threshold %q", fields[1])
		}
		res, err := peer.Search(opCtx, keysearch.NewKeywordSet(fields[2:]...), n, keysearch.SearchOptions{})
		if err != nil {
			return err
		}
		for _, m := range res.Matches {
			fmt.Printf("  %s %v (+%d keywords)\n", m.ObjectID, m.Keywords(), m.Depth)
		}
		fmt.Printf("%d matches, %d nodes contacted, exhausted=%v\n",
			len(res.Matches), res.Stats.NodesContacted, res.Exhausted)
	case "prefix":
		if len(fields) != 3 {
			return fmt.Errorf("usage: prefix <n> <pfx>")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return fmt.Errorf("bad threshold %q", fields[1])
		}
		res, err := peer.PrefixSearch(opCtx, fields[2], n, keysearch.SearchOptions{})
		if err != nil {
			return err
		}
		for _, m := range res.Matches {
			fmt.Printf("  %s %v\n", m.ObjectID, m.Keywords())
		}
		fmt.Printf("%d matches, %d nodes contacted, exhausted=%v, completeness=%.2f\n",
			len(res.Matches), res.Stats.NodesContacted, res.Exhausted, res.Completeness)
	case "refine":
		if len(fields) < 4 {
			return fmt.Errorf("usage: refine <n> <base1,base2,...> <kw...>")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return fmt.Errorf("bad threshold %q", fields[1])
		}
		base := keysearch.NewKeywordSet(strings.Split(fields[2], ",")...)
		refined := keysearch.NewKeywordSet(fields[3:]...)
		res, err := peer.Refine(opCtx, base, refined, n, keysearch.SearchOptions{})
		if err != nil {
			return err
		}
		for _, m := range res.Matches {
			fmt.Printf("  %s %v (+%d keywords)\n", m.ObjectID, m.Keywords(), m.Depth)
		}
		path := "traversal fallback"
		if res.Stats.RefineHit {
			path = "derived from cached ancestor"
		}
		fmt.Printf("%d matches (%s), %d nodes contacted, exhausted=%v\n",
			len(res.Matches), path, res.Stats.NodesContacted, res.Exhausted)
	case "fetch":
		if len(fields) != 2 {
			return fmt.Errorf("usage: fetch <id>")
		}
		refs, err := peer.Fetch(opCtx, fields[1])
		if err != nil {
			return err
		}
		for _, r := range refs {
			fmt.Printf("  %s %s\n", r.Holder, r.Location)
		}
	case "stats":
		st := peer.IndexStats()
		hits, misses := peer.CacheStats()
		fmt.Printf("index: %d vertices, %d entries, %d objects; cache: %d hits / %d misses\n",
			st.Vertices, st.Entries, st.Objects, hits, misses)
		if st.SnapshotFailures > 0 {
			fmt.Printf("index: %d failed WAL compactions, last: %s\n", st.SnapshotFailures, st.LastSnapshotError)
		}
		if st.SyncFailures > 0 {
			fmt.Printf("index: %d failed WAL group commits, last: %s\n", st.SyncFailures, st.LastSyncError)
		}
		if st.SoftForwardFailures > 0 {
			fmt.Printf("hot: %d failed soft-replica forwards to the owner, last: %s\n", st.SoftForwardFailures, st.LastSoftForwardError)
		}
		if st.SoftInvalidationFailures > 0 {
			fmt.Printf("hot: %d failed soft-replica invalidations, last: %s\n", st.SoftInvalidationFailures, st.LastSoftInvalidationError)
		}
		writeCacheSnapshot(os.Stdout, peer.CacheSnapshot())
		ms := peer.MigrationStats()
		fmt.Printf("migration: %d active, %d chunks / %d entries applied, %d resumes, %d double-reads, %d commits, %d failures\n",
			ms.Active, ms.Chunks, ms.Entries, ms.Resumes, ms.DoubleReads, ms.Commits, ms.Failures)
		if ms.LastAbort != "" {
			fmt.Printf("migration: last abort: %s\n", ms.LastAbort)
		}
		if ms.FlushFailures > 0 {
			fmt.Printf("migration: %d failed tombstone deletes, last: %s\n", ms.FlushFailures, ms.LastFlushError)
		}
		if ms.CheckpointFailures > 0 {
			fmt.Printf("migration: %d failed checkpoints, last: %s\n", ms.CheckpointFailures, ms.LastCheckpointError)
		}
		if ms.RelayFailures > 0 {
			fmt.Printf("migration: %d failed relays, last: %s\n", ms.RelayFailures, ms.LastRelayError)
		}
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}
