package load

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/leakcheck"
	"github.com/p2pkeyword/keysearch/internal/sim"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestScheduleDeterminism pins replay comparability: the same config
// must produce the identical arrival schedule, and the schedule must
// track the configured rate.
func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{Rate: 500, Duration: 2 * time.Second, Seed: 9}
	a, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	b, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Poisson arrivals over 2s at 500/s: ~1000 requests, loosely.
	if len(a) < 700 || len(a) > 1300 {
		t.Fatalf("poisson schedule has %d arrivals, want ≈1000", len(a))
	}
	c, err := Schedule(Config{Rate: 500, Duration: 2 * time.Second, Seed: 10})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical poisson schedules")
	}

	fixed, err := Schedule(Config{Rate: 100, Duration: time.Second, Arrival: ArrivalFixed})
	if err != nil {
		t.Fatalf("fixed schedule: %v", err)
	}
	if len(fixed) != 100 {
		t.Fatalf("fixed schedule has %d arrivals, want 100", len(fixed))
	}
}

// TestClassify pins the outcome buckets across error shapes.
func TestClassify(t *testing.T) {
	over := &admission.Overload{Reason: admission.ReasonQueueFull, RetryAfter: time.Millisecond}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{over, "shed"},
		{fmt.Errorf("%w: %s", transport.ErrRemote, over.Error()), "shed"},
		{context.DeadlineExceeded, "timeout"},
		{fmt.Errorf("search: %w", context.DeadlineExceeded), "timeout"},
		{fmt.Errorf("%w: context deadline exceeded", transport.ErrRemote), "timeout"},
		{errors.New("boom"), "error"},
	} {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestLoadSmoke is the CI smoke (`make load-smoke`): a short seeded
// open-loop run against an inmem fleet with admission control on. It
// asserts the accounting identities the BENCH files rely on — goodput
// is nonzero, every offered request lands in exactly one outcome
// bucket, the server-side admission counters reconcile with the rig's
// view, and the run round-trips through a BENCH file.
func TestLoadSmoke(t *testing.T) {
	reg := telemetry.New(0)
	d, err := sim.NewCustomDeployment(sim.DeployConfig{
		R: 6, Peers: 8, Telemetry: reg,
		Admission: &admission.Policy{MaxInflight: 64, MaxQueue: 128, QueueTimeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()

	c, err := corpus.Generate(corpus.Config{Objects: 400, VocabSize: 600, Seed: 5})
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	if err := d.InsertCorpus(c); err != nil {
		t.Fatalf("insert corpus: %v", err)
	}
	qlog, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{Queries: 500, Templates: 50, Seed: 6})
	if err != nil {
		t.Fatalf("query log: %v", err)
	}

	// Admission counters before the run: corpus insertion is gated
	// traffic too, so reconcile on deltas.
	before := reg.Snapshot()
	base := before.Counters["admission_admitted_total"] + before.Counters["admission_shed_total"]

	cfg := Config{Rate: 800, Duration: 1500 * time.Millisecond, Seed: 11, Timeout: 2 * time.Second}
	rep, err := Run(context.Background(), cfg, qlog.Queries(), func(ctx context.Context, q corpus.Query) error {
		_, err := d.Client.SupersetSearch(ctx, q.Keywords, 10, core.SearchOptions{Order: core.ParallelLevels, NoCache: true, ClientID: "smoke"})
		return err
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	if rep.OK == 0 || rep.GoodputQPS <= 0 {
		t.Fatalf("no goodput: %+v", rep)
	}
	if got := rep.OK + rep.Shed + rep.Timeouts + rep.Errors + rep.RigDropped; got != rep.Offered {
		t.Fatalf("outcome buckets sum to %d, offered %d", got, rep.Offered)
	}
	if rep.Errors > 0 {
		t.Fatalf("unexpected hard errors: %+v", rep)
	}
	if rep.Latency.Count != rep.OK || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P999 {
		t.Fatalf("implausible latency summary: %+v", rep.Latency)
	}

	// Every request the rig actually sent hit exactly one admission
	// decision on some server (no middleware retries in this fleet).
	after := reg.Snapshot()
	decided := after.Counters["admission_admitted_total"] + after.Counters["admission_shed_total"] - base
	sent := rep.Offered - rep.RigDropped
	if decided != sent {
		t.Fatalf("admission decisions %d != requests sent %d (admitted+shed must cover every arrival)", decided, sent)
	}

	// The run must survive a BENCH round trip.
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	bench := NewBench("smoke", Workload{
		Transport: "inmem", R: 6, Peers: 8,
		CorpusObjects: 400, CorpusSeed: 5,
		Queries: 500, Templates: 50, QuerySeed: 6, Threshold: 10,
	})
	bench.Runs = append(bench.Runs, RunResult{
		Name: "smoke", Admission: true, RateQPS: cfg.Rate,
		Arrival: ArrivalPoisson, TimeoutNS: cfg.Timeout.Nanoseconds(), Report: rep,
	})
	if err := WriteBench(path, bench); err != nil {
		t.Fatalf("write bench: %v", err)
	}
	back, err := ReadBench(path)
	if err != nil {
		t.Fatalf("read bench: %v", err)
	}
	if back.Schema != BenchSchema || len(back.Runs) != 1 || back.Runs[0].Report.OK != rep.OK {
		t.Fatalf("bench round trip mismatch: %+v", back)
	}
}

// TestRunRespectsCancellation: cancelling the run context stops
// launching new arrivals without erroring.
func TestRunRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	queries := []corpus.Query{{Keywords: keyword.NewSet("a")}}
	rep, err := Run(ctx, Config{Rate: 100, Duration: 10 * time.Second, Seed: 1}, queries,
		func(ctx context.Context, q corpus.Query) error { return nil })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Offered >= 900 {
		t.Fatalf("cancellation did not stop the launcher: offered %d", rep.Offered)
	}
}
