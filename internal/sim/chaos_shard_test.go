package sim

import (
	"runtime"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
)

// TestChaosFingerprintInvariantUnderSharding replays one seeded fault
// schedule against folded 16-peer fleets built under different
// GOMAXPROCS values, which set each server's lock stripes and scan
// workers: 1 (one lock, sequential scans), 3 (4 stripes, 3 workers) and
// 8 (8 stripes, 8 workers). It requires byte-identical outcome
// fingerprints. Sharding and scan parallelism must be invisible in
// every observable — answers, errors, completeness, failed subtrees —
// even while nodes crash, recover, and partition mid-run.
func TestChaosFingerprintInvariantUnderSharding(t *testing.T) {
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

	// deploy builds the fleet with GOMAXPROCS = procs, restored after.
	deploy := func(procs int) (*Deployment, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return NewCustomDeployment(DeployConfig{R: r, Peers: peers, Batch: core.BatchOn})
	}
	// The schedule faults physical peers, so its node list is the folded
	// fleet's address list, not the 2^r logical vertices.
	d0, err := deploy(1)
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
	for _, procs := range []int{3, 8} {
		d, err := deploy(procs)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(d); got != baseline {
			t.Errorf("GOMAXPROCS=%d: fingerprint %s differs from single-lock baseline %s",
				procs, got, baseline)
		}
	}
}
