package sim

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// BenchmarkHotQueryCache replays a Zipf query mix against a FIFO-cache
// fleet and a popularity-cache (TinyLFU) fleet at equal capacity and
// reports both p99 latencies and their ratio.
//
// The mix is the adversarial-but-realistic point for FIFO: a Zipf-1.3
// head (the paper's footnote exponent) whose working set exactly fills
// the cache, plus a 0.5% trickle of one-off scan queries. Each scan
// insertion evicts a head entry, and because FIFO does not refresh
// position on hit, the displaced entry's reinsertion evicts the next
// one — a cascade that keeps head queries missing for the rest of the
// replay. Frequency admission rejects the one-offs outright (sketch
// count 1 versus head counts in the tens), so the hot policy keeps the
// head pinned and only ever misses the scans themselves.
//
// The miss-count comparison is deterministic (seeded log, serial
// replay) and asserted on every machine. The p99 ratio is only
// reported: wall-clock regressions are gated by benchmarks/ksperf's
// bounds.
func BenchmarkHotQueryCache(b *testing.B) {
	const (
		r        = 6
		scanGap  = 200 // one scan query per scanGap head queries (0.5%)
		numScans = 20
	)
	c := testCorpus(b, 4000)
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries:            4000,
		Templates:          17,
		PopularityExponent: 1.3,
		MaxTemplateResults: 8,
		Seed:               9,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The scan stream: one-off result-bearing queries drawn from an
	// independently seeded template pool, deduplicated against the head.
	scanPool, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries:            1,
		Templates:          64,
		MaxTemplateResults: 8,
		Seed:               77,
	})
	if err != nil {
		b.Fatal(err)
	}
	head := make(map[string]bool, len(log.Templates()))
	for _, t := range log.Templates() {
		head[t.Key()] = true
	}
	type scanQuery struct {
		set   keyword.Set
		total int
	}
	scans := make([]scanQuery, 0, numScans)
	for i, t := range scanPool.Templates() {
		if head[t.Key()] {
			continue
		}
		scans = append(scans, scanQuery{set: t, total: scanPool.ResultSize(i + 1)})
		if len(scans) == numScans {
			break
		}
	}
	if len(scans) < numScans {
		b.Fatalf("scan pool yielded only %d distinct one-off queries", len(scans))
	}

	// Cache capacity = units of the head working set with zero slack
	// (exhausted-entry sized: one unit per match).
	capUnits := 0
	for rank := 1; rank <= len(log.Templates()); rank++ {
		n := log.ResultSize(rank)
		if n < 1 {
			n = 1
		}
		capUnits += n
	}

	deploy := func(policy string) *Deployment {
		d, err := NewCustomDeployment(DeployConfig{
			R:             r,
			Peers:         1, // one physical node => one cache of exactly capUnits
			CacheCapacity: capUnits,
			CachePolicy:   policy,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.InsertCorpus(c); err != nil {
			b.Fatal(err)
		}
		return d
	}
	search := func(d *Deployment, set keyword.Set, total int) time.Duration {
		start := time.Now()
		if _, err := d.Client.SupersetSearch(context.Background(), set, total, core.SearchOptions{}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// warm replays the head only, populating the cache and the
	// frequency sketch; measured interleaves the scan stream.
	warm := func(d *Deployment) {
		for _, q := range log.Queries() {
			search(d, q.Keywords, log.ResultSize(q.Template))
		}
	}
	measured := func(d *Deployment, timed bool) []time.Duration {
		var lat []time.Duration
		if timed {
			lat = make([]time.Duration, 0, log.Len()+len(scans))
		}
		scanIdx := 0
		for i, q := range log.Queries() {
			if i > 0 && i%scanGap == 0 && scanIdx < len(scans) {
				s := scans[scanIdx]
				scanIdx++
				el := search(d, s.set, s.total)
				if timed {
					lat = append(lat, el)
				}
			}
			el := search(d, q.Keywords, log.ResultSize(q.Template))
			if timed {
				lat = append(lat, el)
			}
		}
		return lat
	}
	p99 := func(lat []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[(len(sorted)*99+99)/100-1]
	}
	run := func(policy string) (time.Duration, uint64, uint64) {
		d := deploy(policy)
		defer d.Close()
		warm(d)
		before := d.Servers[0].CacheSnapshot()
		lat := measured(d, true)
		after := d.Servers[0].CacheSnapshot()
		return p99(lat), after.Hits - before.Hits, after.Misses - before.Misses
	}

	fifoP99, fifoHits, fifoMisses := run(core.CachePolicyFIFO)
	hotP99, hotHits, hotMisses := run(core.CachePolicyHot)

	// The replay is deterministic, so the policy comparison itself is
	// asserted on every machine: the hot policy must keep the head
	// pinned (misses under the 1% p99 boundary) while FIFO's scan
	// cascade pushes it past the boundary at the same capacity.
	total := hotHits + hotMisses
	if hotMisses*100 >= total {
		b.Fatalf("hot policy missed %d/%d measured queries (>= 1%%): head not retained at capacity %d",
			hotMisses, total, capUnits)
	}
	if fifoMisses*100 < fifoHits+fifoMisses {
		b.Fatalf("fifo missed only %d/%d measured queries (< 1%%): mix no longer thrashes FIFO at capacity %d",
			fifoMisses, fifoHits+fifoMisses, capUnits)
	}
	speedup := float64(fifoP99) / float64(hotP99)

	d := deploy(core.CachePolicyHot)
	defer d.Close()
	warm(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measured(d, false)
	}
	b.ReportMetric(float64(fifoP99.Nanoseconds()), "fifo-p99-ns")
	b.ReportMetric(float64(hotP99.Nanoseconds()), "hot-p99-ns")
	b.ReportMetric(speedup, "p99-speedup-x")
	b.ReportMetric(float64(fifoHits)/float64(fifoHits+fifoMisses), "fifo-hit-ratio")
	b.ReportMetric(float64(hotHits)/float64(total), "hot-hit-ratio")
}
