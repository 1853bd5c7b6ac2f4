// Command ksload is the open-loop load rig: it replays a seeded Zipf
// query log against a keysearch fleet at a configured arrival rate —
// the way a large population of independent users would, without the
// coordinated-omission bias of closed-loop drivers — and records SLO
// accounting (goodput, shed rate, intended-start latency quantiles)
// as a machine-readable BENCH_<tag>.json under -out.
//
// Examples:
//
//	ksload -rate 2000 -duration 5s                  # one run, inmem fleet
//	ksload -transport tcp -peers 4 -rate 500        # over real sockets
//	ksload -study -tag pr6_baseline                 # the overload study
//	ksload -log queries.tsv -rate 1000              # replay a ksgen export
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/load"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ksload:", err)
		os.Exit(1)
	}
}

type options struct {
	transport string
	r         int
	peers     int

	objects    int
	corpusSeed int64
	queries    int
	templates  int
	querySeed  int64
	logPath    string

	rate       float64
	duration   time.Duration
	arrival    string
	seed       int64
	timeout    time.Duration
	clients    int
	thresh     int
	prefixFrac float64
	prefixLen  int

	// prefixEvery is derived from prefixFrac: every Nth request is
	// issued as a prefix multicast instead of a superset search (0 =
	// superset-only).
	prefixEvery int

	admissionOn  bool
	maxInflight  int
	maxQueue     int
	queueTimeout time.Duration
	clientRate   float64
	clientBurst  float64

	study bool
	tag   string
	out   string
}

func run(args []string) error {
	fs := flag.NewFlagSet("ksload", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.transport, "transport", "inmem", "fleet transport: inmem or tcp")
	fs.IntVar(&o.r, "r", 8, "hypercube dimensionality")
	fs.IntVar(&o.peers, "peers", 16, "physical fleet size")
	fs.IntVar(&o.objects, "objects", 2000, "corpus size")
	fs.Int64Var(&o.corpusSeed, "corpus-seed", 1, "corpus generation seed")
	fs.IntVar(&o.queries, "queries", 5000, "generated query-log length")
	fs.IntVar(&o.templates, "templates", 200, "distinct query templates")
	fs.Int64Var(&o.querySeed, "query-seed", 2, "query-log generation seed")
	fs.StringVar(&o.logPath, "log", "", "replay this ksgen -querylog TSV export instead of generating")
	fs.Float64Var(&o.rate, "rate", 1000, "offered arrival rate, requests/second")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "offered-load window")
	fs.StringVar(&o.arrival, "arrival", load.ArrivalPoisson, "arrival process: poisson or fixed")
	fs.Int64Var(&o.seed, "seed", 3, "arrival-schedule seed")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Second, "per-request deadline (0 = none)")
	fs.IntVar(&o.clients, "clients", 64, "distinct client identities the load is spread across")
	fs.IntVar(&o.thresh, "threshold", 10, "search threshold (matches requested per query)")
	fs.Float64Var(&o.prefixFrac, "prefix-frac", 0, "fraction of requests issued as prefix multicasts, derived from the query's first keyword (0 = superset-only)")
	fs.IntVar(&o.prefixLen, "prefix-len", 3, "prefix length for -prefix-frac queries")
	fs.BoolVar(&o.admissionOn, "admission", true, "enable server-side admission control")
	fs.IntVar(&o.maxInflight, "max-inflight", 64, "admission: concurrent client-facing requests per peer")
	fs.IntVar(&o.maxQueue, "max-queue", 64, "admission: bounded wait queue per peer (-1 = none)")
	fs.DurationVar(&o.queueTimeout, "queue-timeout", 50*time.Millisecond, "admission: max queue wait")
	fs.Float64Var(&o.clientRate, "client-rate", 0, "admission: per-client token rate, req/s (0 = no fair queuing)")
	fs.Float64Var(&o.clientBurst, "client-burst", 0, "admission: per-client burst (0 = rate/4)")
	fs.BoolVar(&o.study, "study", false, "run the overload study (capacity probe + 0.5x/2x phases) instead of one run")
	fs.StringVar(&o.tag, "tag", "run", "BENCH file tag: results/BENCH_<tag>.json")
	fs.StringVar(&o.out, "out", "results", "output directory for BENCH files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.transport != "inmem" && o.transport != "tcp" {
		return fmt.Errorf("unknown transport %q", o.transport)
	}
	if o.prefixFrac < 0 || o.prefixFrac > 1 {
		return fmt.Errorf("-prefix-frac %v outside [0, 1]", o.prefixFrac)
	}
	if o.prefixFrac > 0 {
		if o.prefixLen < 1 {
			return fmt.Errorf("-prefix-len %d must be positive", o.prefixLen)
		}
		o.prefixEvery = int(math.Round(1 / o.prefixFrac))
		if o.prefixEvery < 1 {
			o.prefixEvery = 1
		}
	}

	c, err := corpus.Generate(corpus.Config{Objects: o.objects, Seed: o.corpusSeed})
	if err != nil {
		return err
	}
	var queries []corpus.Query
	if o.logPath != "" {
		f, err := os.Open(o.logPath)
		if err != nil {
			return err
		}
		queries, err = corpus.ReadQueryLogTSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		qlog, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
			Queries: o.queries, Templates: o.templates, Seed: o.querySeed,
		})
		if err != nil {
			return err
		}
		queries = qlog.Queries()
	}

	bench := load.NewBench(o.tag, load.Workload{
		Transport:     o.transport,
		R:             o.r,
		Peers:         o.peers,
		CorpusObjects: o.objects,
		CorpusSeed:    o.corpusSeed,
		Queries:       len(queries),
		Templates:     o.templates,
		QuerySeed:     o.querySeed,
		Threshold:     o.thresh,
	})
	if o.prefixFrac > 0 {
		bench.Workload.PrefixFrac = o.prefixFrac
		bench.Workload.PrefixLen = o.prefixLen
	}

	if o.study {
		if err := runStudy(&o, c, queries, bench); err != nil {
			return err
		}
	} else {
		f, err := buildFleet(&o, c, o.admissionOn)
		if err != nil {
			return err
		}
		rep, err := runPhase(&o, f, queries, o.rate)
		f.close()
		if err != nil {
			return err
		}
		printReport("single ("+o.tag+")", o.rate, rep)
		bench.Runs = append(bench.Runs, load.RunResult{
			Name: "single", Admission: o.admissionOn, RateQPS: o.rate,
			Arrival: o.arrival, TimeoutNS: o.timeout.Nanoseconds(), Report: rep,
		})
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, "BENCH_"+o.tag+".json")
	if err := load.WriteBench(path, bench); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func (o *options) policy() *keysearch.AdmissionPolicy {
	return &keysearch.AdmissionPolicy{
		MaxInflight:    o.maxInflight,
		MaxQueue:       o.maxQueue,
		QueueTimeout:   o.queueTimeout,
		PerClientRate:  o.clientRate,
		PerClientBurst: o.clientBurst,
	}
}

// prefixOf derives the prefix-multicast argument from a replayed
// query: its first keyword truncated to plen characters ("" when the
// query is empty, in which case the caller falls back to superset).
func prefixOf(q corpus.Query, plen int) string {
	words := q.Keywords.Words()
	if len(words) == 0 {
		return ""
	}
	w := words[0]
	if len(w) > plen {
		w = w[:plen]
	}
	return w
}

// prefixMixer deterministically picks which requests of an open-loop
// phase become prefix multicasts: every every-th one (0 = none).
type prefixMixer struct {
	every int
	plen  int
	n     atomic.Uint64
}

// pick returns the prefix to query, or "" for a superset search.
func (m *prefixMixer) pick(q corpus.Query) string {
	if m.every <= 0 || m.n.Add(1)%uint64(m.every) != 0 {
		return ""
	}
	return prefixOf(q, m.plen)
}

// runPhase replays the query log open-loop at rate, spreading requests
// across o.clients identities.
func runPhase(o *options, f *fleet, queries []corpus.Query, rate float64) (load.Report, error) {
	var next atomic.Uint64
	return load.Run(context.Background(), load.Config{
		Rate:     rate,
		Duration: o.duration,
		Arrival:  o.arrival,
		Seed:     o.seed,
		Timeout:  o.timeout,
	}, queries, func(ctx context.Context, q corpus.Query) error {
		id := ""
		if o.clients > 0 {
			id = fmt.Sprintf("c%d", next.Add(1)%uint64(o.clients))
		}
		return f.do(ctx, q, id)
	})
}

// probeCapacity measures the fleet's closed-loop throughput: 2×NumCPU
// workers issuing back-to-back queries for a short window. The result
// anchors the study's "0.5×" and "2×" offered rates.
func probeCapacity(o *options, f *fleet, queries []corpus.Query) float64 {
	const window = 2 * time.Second
	workers := 2 * runtime.GOMAXPROCS(0)
	var done atomic.Uint64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ctx.Err() == nil; i += workers {
				if f.do(ctx, queries[i%len(queries)], "") == nil {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	cancel()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// runStudy is the PR's recorded experiment: measure capacity, then
// offer 0.5× with admission on (the healthy baseline), 2× with
// admission on (the fleet must shed its way back to its capacity), and
// 2× with admission off (the collapse the controller prevents).
func runStudy(o *options, c *corpus.Corpus, queries []corpus.Query, bench *load.BenchFile) error {
	probe, err := buildFleet(o, c, true)
	if err != nil {
		return err
	}
	capacity := probeCapacity(o, probe, queries)
	probe.close()
	if capacity <= 0 {
		return fmt.Errorf("capacity probe measured no throughput")
	}
	bench.CapacityQPS = capacity
	fmt.Printf("capacity ≈ %.0f q/s (closed-loop probe)\n", capacity)

	type phase struct {
		name      string
		admission bool
		rate      float64
	}
	phases := []phase{
		{"0.5x-admission-on", true, 0.5 * capacity},
		{"2x-admission-on", true, 2 * capacity},
		{"2x-admission-off", false, 2 * capacity},
	}
	reports := make(map[string]load.Report, len(phases))
	for _, ph := range phases {
		f, err := buildFleet(o, c, ph.admission)
		if err != nil {
			return err
		}
		rep, err := runPhase(o, f, queries, ph.rate)
		f.close()
		if err != nil {
			return err
		}
		reports[ph.name] = rep
		printReport(ph.name, ph.rate, rep)
		bench.Runs = append(bench.Runs, load.RunResult{
			Name: ph.name, Admission: ph.admission, RateQPS: ph.rate,
			Arrival: o.arrival, TimeoutNS: o.timeout.Nanoseconds(), Report: rep,
		})
	}

	// The study's acceptance assertions.
	base, on, off := reports["0.5x-admission-on"], reports["2x-admission-on"], reports["2x-admission-off"]
	peak := base.GoodputQPS
	if off.GoodputQPS > peak {
		peak = off.GoodputQPS
	}
	pass := true
	check := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict, pass = "FAIL", false
		}
		fmt.Printf("%s  %s\n", verdict, fmt.Sprintf(format, args...))
	}
	check(base.Latency.P99 > 0 && on.Latency.P99 <= 5*base.Latency.P99,
		"admitted p99 at 2x with admission on (%v) within 5x of 0.5x baseline (%v)",
		time.Duration(on.Latency.P99), time.Duration(base.Latency.P99))
	check(on.GoodputQPS >= 0.7*peak,
		"goodput at 2x with admission on (%.0f q/s) >= 70%% of peak (%.0f q/s)",
		on.GoodputQPS, peak)
	check(on.Shed > 0, "admission actually shed load at 2x (%d shed, Retry-After mean %v)",
		on.Shed, time.Duration(on.RetryAfterMeanNS))
	check(off.Latency.P99 > on.Latency.P99 || off.GoodputQPS < on.GoodputQPS,
		"admission off at 2x degrades (p99 %v vs %v, goodput %.0f vs %.0f q/s)",
		time.Duration(off.Latency.P99), time.Duration(on.Latency.P99), off.GoodputQPS, on.GoodputQPS)
	if !pass {
		return fmt.Errorf("overload study failed its acceptance assertions")
	}
	return nil
}

func printReport(name string, rate float64, r load.Report) {
	fmt.Printf("%-18s rate=%.0f offered=%d ok=%d shed=%d timeout=%d err=%d rigdrop=%d goodput=%.0f q/s shed=%.1f%% p50=%v p99=%v p999=%v\n",
		name, rate, r.Offered, r.OK, r.Shed, r.Timeouts, r.Errors, r.RigDropped,
		r.GoodputQPS, 100*r.ShedRate,
		time.Duration(r.Latency.P50), time.Duration(r.Latency.P99), time.Duration(r.Latency.P999))
}
