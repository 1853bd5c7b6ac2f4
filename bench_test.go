package keysearch

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 4) plus ablations over the design choices of
// Sections 3.3–3.5. Each benchmark regenerates its figure's series
// against the synthetic PCHome-substitute workload and reports the
// headline scalar through b.ReportMetric; set KSBENCH_PRINT=1 to also
// print the full tables, and KSBENCH_FULL=1 to run at full paper
// scale (131,180 objects / 178,000 queries) instead of the scaled
// default.
//
// Run with:
//
//	go test -bench=. -benchmem
//	KSBENCH_PRINT=1 go test -bench=Fig6 -benchtime=1x

import (
	"context"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/analytic"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/sim"
)

func benchScale() (objects, queries, templates int) {
	if os.Getenv("KSBENCH_FULL") != "" {
		return corpus.DefaultObjects, 178000, 2000
	}
	return 20000, 20000, 500
}

func benchOut() io.Writer {
	if os.Getenv("KSBENCH_PRINT") != "" {
		return os.Stdout
	}
	return io.Discard
}

var (
	benchOnce   sync.Once
	benchCorpus *corpus.Corpus
	benchLog    *corpus.QueryLog
	benchErr    error
)

func benchWorkload(b *testing.B) (*corpus.Corpus, *corpus.QueryLog) {
	b.Helper()
	benchOnce.Do(func() {
		objects, queries, templates := benchScale()
		benchCorpus, benchErr = corpus.Generate(corpus.Config{Objects: objects, Seed: 1})
		if benchErr != nil {
			return
		}
		benchLog, benchErr = corpus.GenerateQueryLog(benchCorpus, corpus.QueryLogConfig{
			Queries:   queries,
			Templates: templates,
			Seed:      2,
		})
	})
	if benchErr != nil {
		b.Fatalf("workload: %v", benchErr)
	}
	return benchCorpus, benchLog
}

// BenchmarkTable1SampleRecords regenerates the corpus whose records
// mirror Table 1's schema.
func BenchmarkTable1SampleRecords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := corpus.Generate(corpus.Config{Objects: 1000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() != 1000 {
			b.Fatal("short corpus")
		}
	}
}

// BenchmarkFig5KeywordSetSizes regenerates the keyword-set-size
// distribution and reports its mean (paper: 7.3).
func BenchmarkFig5KeywordSetSizes(b *testing.B) {
	c, _ := benchWorkload(b)
	var res sim.Fig5Result
	for i := 0; i < b.N; i++ {
		res = sim.Fig5(c)
	}
	sim.RenderFig5(benchOut(), res)
	b.ReportMetric(res.Mean, "mean-keywords")
}

// BenchmarkFig6LoadDistribution regenerates the load-distribution
// curves for the hypercube scheme (r = 6..16), the DHT direct-hash
// reference, and the DII baseline (r = 10, 12, 14). It reports the
// hypercube/DII Gini gap at r = 10 (paper: DII far more skewed).
func BenchmarkFig6LoadDistribution(b *testing.B) {
	c, _ := benchWorkload(b)
	var curves []sim.LoadCurve
	for i := 0; i < b.N; i++ {
		curves = curves[:0]
		for _, r := range []int{6, 8, 10, 12, 14, 16} {
			for _, scheme := range []sim.LoadScheme{sim.SchemeHypercube, sim.SchemeDHT} {
				lc, err := sim.Fig6Load(c, scheme, r)
				if err != nil {
					b.Fatal(err)
				}
				curves = append(curves, lc)
			}
		}
		for _, r := range []int{10, 12, 14} {
			lc, err := sim.Fig6Load(c, sim.SchemeDII, r)
			if err != nil {
				b.Fatal(err)
			}
			curves = append(curves, lc)
		}
	}
	sim.RenderFig6(benchOut(), curves, []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75})
	var hyper10, dii10 float64
	for _, lc := range curves {
		if lc.R == 10 && lc.Scheme == sim.SchemeHypercube {
			hyper10 = lc.Gini()
		}
		if lc.R == 10 && lc.Scheme == sim.SchemeDII {
			dii10 = lc.Gini()
		}
	}
	b.ReportMetric(hyper10, "hypercube-gini-r10")
	b.ReportMetric(dii10, "dii-gini-r10")
}

// BenchmarkFig7ObjectVsNodeDistribution regenerates the eight Figure 7
// charts and reports the total-variation distance at r = 10, the
// paper's empirical optimum.
func BenchmarkFig7ObjectVsNodeDistribution(b *testing.B) {
	c, _ := benchWorkload(b)
	var tv10 float64
	for i := 0; i < b.N; i++ {
		for _, r := range []int{6, 8, 10, 12, 13, 14, 15, 16} {
			res, err := sim.Fig7(c, r)
			if err != nil {
				b.Fatal(err)
			}
			if r == 10 {
				tv10 = sim.TotalVariation(res.NodePMF, res.ObjectPMF)
				sim.RenderFig7(benchOut(), res)
			}
		}
	}
	b.ReportMetric(tv10, "tv-distance-r10")
}

// BenchmarkFig8QueryCacheless regenerates the cacheless query study at
// r = 10 for query sizes m = 1..5 and reports the fraction of nodes
// contacted at 100 % recall for m = 1 (paper: ≈ 2^-m).
func BenchmarkFig8QueryCacheless(b *testing.B) {
	c, log := benchWorkload(b)
	d, err := sim.NewDeployment(10, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		b.Fatal(err)
	}
	recalls := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	var lines []sim.Fig8Line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for m := 1; m <= 5; m++ {
			qs := log.PopularOfSize(m, 5)
			if len(qs) == 0 {
				continue
			}
			line, err := sim.Fig8(d, qs, recalls)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, line)
		}
	}
	b.StopTimer()
	sim.RenderFig8(benchOut(), lines)
	if len(lines) > 0 {
		b.ReportMetric(lines[0].NodesFrac[len(recalls)-1], "m1-nodes-frac-100pct")
	}
}

// BenchmarkFig9QueryWithCache regenerates the cache study at r = 10
// (recall 100 %) and reports the average fraction of nodes contacted
// at α = 1/6 (paper: < 1 %).
func BenchmarkFig9QueryWithCache(b *testing.B) {
	c, _ := benchWorkload(b)
	_, queries, templates := benchScale()
	// Figure 9 uses the result-capped log (see EXPERIMENTS.md's
	// calibration note): popular queries with modest result sets are
	// the regime where per-root caching matches the paper.
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries:            queries,
		Templates:          templates,
		Seed:               2,
		MaxTemplateResults: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	alphas := []float64{0, 1.0 / 6}
	var points []sim.Fig9Point
	for i := 0; i < b.N; i++ {
		points, err = sim.Fig9(c, log, 10, alphas, 1.0, queries)
		if err != nil {
			b.Fatal(err)
		}
	}
	sim.RenderFig9(benchOut(), 10, 1.0, points)
	if len(points) == 2 {
		b.ReportMetric(100*points[0].AvgNodesFrac, "pct-nodes-cacheless")
		b.ReportMetric(100*points[1].AvgNodesFrac, "pct-nodes-alpha-sixth")
	}
}

// BenchmarkEq1OneBitsDistribution evaluates Equation (1) across the
// parameter grid used in Section 3.5.
func BenchmarkEq1OneBitsDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for r := 6; r <= 16; r++ {
			for m := 1; m <= 20; m++ {
				if _, err := analytic.OneBitsDistribution(r, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSec35OperationCosts verifies the single-lookup costs of
// insert / pin search / delete claimed in Section 3.5.
func BenchmarkSec35OperationCosts(b *testing.B) {
	c, _ := benchWorkload(b)
	d, err := sim.NewDeployment(10, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var costs []sim.OpCost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs, err = sim.OpCosts(d, c, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sim.RenderOpCosts(benchOut(), costs)
	for _, oc := range costs {
		if oc.AvgMessages != 2 {
			b.Fatalf("%s cost %.2f messages, want 2", oc.Op, oc.AvgMessages)
		}
	}
	b.ReportMetric(2, "msgs-per-op")
}

// BenchmarkAblationTraversalOrders compares top-down, bottom-up and
// parallel traversals on the same popular query (Section 3.3's design
// alternatives).
func BenchmarkAblationTraversalOrders(b *testing.B) {
	c, log := benchWorkload(b)
	d, err := sim.NewDeployment(10, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		b.Fatal(err)
	}
	qs := log.PopularOfSize(2, 1)
	if len(qs) == 0 {
		b.Skip("no size-2 query template")
	}
	var costs []sim.TraversalCost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs, err = sim.CompareTraversals(d, qs[0], 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, tc := range costs {
		b.Logf("%-16v nodes=%d msgs=%d rounds=%d matches=%d", tc.Order, tc.Nodes, tc.Msgs, tc.Rounds, tc.Matches)
	}
}

// BenchmarkAblationDimension sweeps r and reports how the exhaustive
// search space of a fixed two-keyword query scales as 2^(r-|One|)
// (the Section 3.4 argument for decomposing large keyword spaces).
func BenchmarkAblationDimension(b *testing.B) {
	c, log := benchWorkload(b)
	qs := log.PopularOfSize(2, 1)
	if len(qs) == 0 {
		b.Skip("no size-2 query template")
	}
	q := qs[0]
	ctx := context.Background()
	for _, r := range []int{8, 10, 12} {
		b.Run("r="+strconv.Itoa(r), func(b *testing.B) {
			d, err := sim.NewDeployment(r, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if err := d.InsertCorpus(c); err != nil {
				b.Fatal(err)
			}
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Client.SupersetSearch(ctx, q, All, SearchOptions{NoCache: true})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.NodesContacted
			}
			b.ReportMetric(float64(nodes), "nodes-contacted")
		})
	}
}

// BenchmarkAblationCacheHitPath isolates the cache fast path: the same
// query repeated against a warm root cache.
func BenchmarkAblationCacheHitPath(b *testing.B) {
	c, log := benchWorkload(b)
	d, err := sim.NewDeployment(10, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		b.Fatal(err)
	}
	qs := log.PopularOfSize(1, 1)
	if len(qs) == 0 {
		b.Skip("no size-1 template")
	}
	ctx := context.Background()
	if _, err := d.Client.SupersetSearch(ctx, qs[0], 20, SearchOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Client.SupersetSearch(ctx, qs[0], 20, SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.CacheHit {
			b.Fatal("expected warm cache hit")
		}
	}
}

// BenchmarkMicroPinSearch measures the pin-search fast path.
func BenchmarkMicroPinSearch(b *testing.B) {
	c, _ := benchWorkload(b)
	d, err := sim.NewDeployment(10, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		b.Fatal(err)
	}
	rec := c.Records()[0]
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Client.PinSearch(ctx, rec.Keywords); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroInsertDelete measures the single-entry index update
// path.
func BenchmarkMicroInsertDelete(b *testing.B) {
	d, err := sim.NewDeployment(10, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	obj := Object{ID: "bench", Keywords: NewKeywordSet("a", "b", "c")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Client.Insert(ctx, obj); err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.Client.Delete(ctx, obj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveBatching runs the same exhaustive parallel search on a
// 64-peer fleet at r = 10 with wave batching off and on. It fails
// unless the batched run sends at least 3x fewer physical RPC frames
// while returning a byte-identical match sequence, and reports both
// frame counts and the reduction factor.
func BenchmarkWaveBatching(b *testing.B) {
	c, log := benchWorkload(b)
	qs := log.PopularOfSize(1, 1)
	if len(qs) == 0 {
		b.Skip("no size-1 query template")
	}
	q := qs[0]
	build := func(mode core.BatchMode) *sim.Deployment {
		d, err := sim.NewCustomDeployment(sim.DeployConfig{R: 10, Peers: 64, Batch: mode})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.InsertCorpus(c); err != nil {
			d.Close()
			b.Fatal(err)
		}
		return d
	}
	off := build(core.BatchOff)
	defer off.Close()
	on := build(core.BatchOn)
	defer on.Close()

	ctx := context.Background()
	opts := SearchOptions{Order: ParallelLevels, NoCache: true}
	var framesOff, framesOn int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro, err := off.Client.SupersetSearch(ctx, q, All, opts)
		if err != nil {
			b.Fatal(err)
		}
		rb, err := on.Client.SupersetSearch(ctx, q, All, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(ro.Matches) != len(rb.Matches) {
			b.Fatalf("match count diverged: %d unbatched, %d batched", len(ro.Matches), len(rb.Matches))
		}
		for j := range ro.Matches {
			if ro.Matches[j] != rb.Matches[j] {
				b.Fatalf("match[%d] diverged: %+v vs %+v", j, ro.Matches[j], rb.Matches[j])
			}
		}
		framesOff, framesOn = ro.Stats.PhysFrames, rb.Stats.PhysFrames
	}
	b.StopTimer()
	if framesOn == 0 || framesOff < 3*framesOn {
		b.Fatalf("frame reduction below 3x: %d unbatched vs %d batched", framesOff, framesOn)
	}
	b.ReportMetric(float64(framesOff), "frames-unbatched")
	b.ReportMetric(float64(framesOn), "frames-batched")
	b.ReportMetric(float64(framesOff)/float64(framesOn), "frame-reduction")
}

// BenchmarkFaultToleranceStudy regenerates the Sections 1/3.4
// fault-tolerance comparison: hypercube searches degrade gracefully
// while the DII baseline blocks whole keywords.
func BenchmarkFaultToleranceStudy(b *testing.B) {
	c, log := benchWorkload(b)
	queries := sim.FaultStudyQueries(log, 5)
	if len(queries) == 0 {
		b.Skip("no study queries")
	}
	var points []sim.FaultPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = sim.FaultTolerance(c, 10, queries, []float64{0, 0.1, 0.3}, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) == 3 {
		sim.RenderFaultStudy(benchOut(), 10, points)
		b.ReportMetric(100*points[2].HyperRecall, "hyper-recall-pct-30pct-failed")
		b.ReportMetric(100*points[2].DIIBlocked, "dii-blocked-pct-30pct-failed")
	}
}
