package sim

import (
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// TestChaosFingerprintInvariantUnderDurableRecovery replays one seeded
// fault schedule against the in-memory baseline fleet and against
// durable fleets, where a crash wipes the node's tables and a recover
// replays its data directory. The outcome fingerprints must be
// byte-identical: recovery from disk must reconstruct exactly the
// state the crash destroyed, in every observable — answers and their
// order, errors, completeness, failed subtrees.
func TestChaosFingerprintInvariantUnderDurableRecovery(t *testing.T) {
	const (
		r         = 6
		peers     = 16
		chaosSeed = 7
	)
	c := testCorpus(t, 800)
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{Queries: 200, Templates: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := FaultStudyQueries(log, 8)
	if len(queries) < 12 {
		t.Fatalf("too few study queries: %d", len(queries))
	}

	d0, err := NewCustomDeployment(DeployConfig{R: r, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	nodes := d0.Addrs
	sched, err := GenerateChaos(chaosSeed, ChaosConfig{
		Queries: len(queries), Nodes: nodes,
		CrashFrac: 0.2, Recover: true,
		Partitions: 2, PartitionSpan: 6,
	})
	if err != nil {
		d0.Close()
		t.Fatal(err)
	}
	// The comparison is only meaningful if the schedule actually
	// round-trips a node through crash and recovery.
	recovers := 0
	for _, ev := range sched.Events {
		if ev.Kind == FaultRecover {
			recovers++
		}
	}
	if recovers == 0 {
		d0.Close()
		t.Fatal("schedule has no recover events — durable replay would never run")
	}

	run := func(d *Deployment) string {
		defer d.Close()
		if err := d.InsertCorpus(c); err != nil {
			t.Fatal(err)
		}
		sched.PrefixEvery = 4 // pin the prefix class in the fingerprint too
		rep, err := ReplayChaos(d, nil, queries, sched)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded+rep.Failed == 0 {
			t.Fatal("schedule injected no observable degradation — the comparison is vacuous")
		}
		return rep.Fingerprint()
	}

	baseline := run(d0)
	for _, fsync := range []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval} {
		reg := telemetry.New(8)
		d, err := NewCustomDeployment(DeployConfig{
			R: r, Peers: peers,
			DataDir: t.TempDir(), Fsync: fsync,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := run(d); got != baseline {
			t.Errorf("fsync=%v: durable-recovery fingerprint %s differs from in-memory baseline %s",
				fsync, got, baseline)
		}
		if v := reg.Counter("store_recovery_replayed_total").Value(); v == 0 {
			t.Errorf("fsync=%v: no WAL records replayed — the durable crash model did not engage", fsync)
		}
	}
}

// BenchmarkDurableIndexingOverhead indexes the same corpus into an
// in-memory fleet and a durable fleet (fsync=interval, the default
// policy) and reports the WAL's end-to-end indexing overhead. It gates
// nothing: wall-clock regressions are gated by benchmarks/ksperf's
// bounds (rw_durable_tcp covers the write path). Fixed-rep best-of-k
// timing outside b.N, so the figure is produced even at -benchtime=1x.
func BenchmarkDurableIndexingOverhead(b *testing.B) {
	const (
		r       = 6
		peers   = 16
		records = 800
		reps    = 20
	)
	c, err := corpus.Generate(corpus.Config{Objects: records, VocabSize: 4000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}

	pass := func(dataDir string) time.Duration {
		cfg := DeployConfig{R: r, Peers: peers}
		if dataDir != "" {
			cfg.DataDir = dataDir
			cfg.Fsync = store.FsyncInterval
		}
		d, err := NewCustomDeployment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		start := time.Now()
		if err := d.InsertCorpus(c); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// One untimed pass of each shape warms the allocator and page cache,
	// then plain/durable passes interleave so both floors are taken over
	// the same machine conditions — best-of-k converges on the intrinsic
	// cost even when a shared box injects multi-hundred-µs noise spikes.
	pass("")
	pass(b.TempDir())
	plain := time.Duration(1<<63 - 1)
	durable := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		if d := pass(""); d < plain {
			plain = d
		}
		if d := pass(b.TempDir()); d < durable {
			durable = d
		}
	}
	overhead := float64(durable)/float64(plain) - 1

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(b.TempDir())
	}
	b.ReportMetric(overhead*100, "overhead-%")
	b.ReportMetric(float64(plain.Nanoseconds()), "plain-ns/corpus")
	b.ReportMetric(float64(durable.Nanoseconds()), "durable-ns/corpus")
}
