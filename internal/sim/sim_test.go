package sim

import (
	"math"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/leakcheck"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// testCorpus builds a moderate corpus shared by the sim tests.
func testCorpus(t testing.TB, objects int) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Objects: objects, VocabSize: 8000, Seed: 1})
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	return c
}

func TestFig5MeanMatchesPaper(t *testing.T) {
	c := testCorpus(t, 20000)
	res := Fig5(c)
	if res.Mean < 6.8 || res.Mean > 7.8 {
		t.Errorf("mean = %.2f, want ≈ 7.3", res.Mean)
	}
	total := 0
	for _, n := range res.Hist {
		total += n
	}
	if total != c.Len() {
		t.Errorf("histogram total %d != %d", total, c.Len())
	}
}

func TestFig6HypercubeBeatsDII(t *testing.T) {
	c := testCorpus(t, 20000)
	hyper, err := Fig6Load(c, SchemeHypercube, 10)
	if err != nil {
		t.Fatal(err)
	}
	dii, err := Fig6Load(c, SchemeDII, 10)
	if err != nil {
		t.Fatal(err)
	}
	dht, err := Fig6Load(c, SchemeDHT, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 6 ordering: DII is far more skewed than the
	// hypercube scheme, which is close to direct DHT hashing at r=10.
	if hyper.Gini() >= dii.Gini() {
		t.Errorf("hypercube Gini %.3f not better than DII %.3f", hyper.Gini(), dii.Gini())
	}
	if dii.CumulativeShare(0.01) < 3*hyper.CumulativeShare(0.01) {
		t.Errorf("DII top-1%% share %.3f vs hypercube %.3f — expected strong concentration for DII",
			dii.CumulativeShare(0.01), hyper.CumulativeShare(0.01))
	}
	// At r = 10 the hypercube scheme should be within a modest factor
	// of plain DHT balance.
	if hyper.Gini() > dht.Gini()+0.35 {
		t.Errorf("hypercube Gini %.3f much worse than DHT %.3f at r=10", hyper.Gini(), dht.Gini())
	}
}

func TestFig6LoadBalanceBestNearR10(t *testing.T) {
	// The paper finds load balance improves up to r ≈ 10 then degrades.
	c := testCorpus(t, 20000)
	gini := map[int]float64{}
	for _, r := range []int{6, 10, 16} {
		lc, err := Fig6Load(c, SchemeHypercube, r)
		if err != nil {
			t.Fatal(err)
		}
		gini[r] = lc.Gini()
	}
	if gini[10] >= gini[16] {
		t.Errorf("gini r=10 (%.3f) should beat r=16 (%.3f)", gini[10], gini[16])
	}
}

func TestFig6TotalsConserveLoad(t *testing.T) {
	c := testCorpus(t, 5000)
	hyper, _ := Fig6Load(c, SchemeHypercube, 8)
	if hyper.Total != c.Len() {
		t.Errorf("hypercube total = %d, want %d (one entry per object)", hyper.Total, c.Len())
	}
	dii, _ := Fig6Load(c, SchemeDII, 8)
	wantDII := 0
	for _, f := range c.KeywordFrequencies() {
		wantDII += f
	}
	if dii.Total != wantDII {
		t.Errorf("DII total = %d, want %d (one entry per keyword occurrence)", dii.Total, wantDII)
	}
	if dii.Total <= hyper.Total {
		t.Error("DII should store strictly more references than the hypercube scheme")
	}
}

func TestFig6Validation(t *testing.T) {
	c := testCorpus(t, 100)
	if _, err := Fig6Load(c, SchemeHypercube, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := Fig6Load(c, LoadScheme("bogus"), 8); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestCumulativeShareBounds(t *testing.T) {
	lc := LoadCurve{Loads: []int{5, 3, 2}, Total: 10}
	if got := lc.CumulativeShare(0); got != 0 {
		t.Errorf("share(0) = %g", got)
	}
	if got := lc.CumulativeShare(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("share(1) = %g", got)
	}
	if got := lc.CumulativeShare(1.0 / 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("share(1/3) = %g, want 0.5", got)
	}
}

func TestGiniExtremes(t *testing.T) {
	balanced := LoadCurve{Loads: []int{5, 5, 5, 5}, Total: 20}
	if g := balanced.Gini(); math.Abs(g) > 1e-9 {
		t.Errorf("balanced Gini = %g", g)
	}
	concentrated := LoadCurve{Loads: []int{20, 0, 0, 0}, Total: 20}
	if g := concentrated.Gini(); g < 0.7 {
		t.Errorf("concentrated Gini = %g", g)
	}
}

func TestFig7ObjectCurveCentersByMapping(t *testing.T) {
	c := testCorpus(t, 20000)
	res, err := Fig7(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, pmf := range [][]float64{res.NodePMF, res.ObjectPMF, res.AnalyticObjectPMF} {
		sum := 0.0
		for _, p := range pmf {
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("PMF sums to %g", sum)
		}
	}
	// The empirical object distribution must track the Equation (1)
	// prediction closely.
	if tv := TotalVariation(res.ObjectPMF, res.AnalyticObjectPMF); tv > 0.02 {
		t.Errorf("object PMF deviates from Eq.(1) by TV %.4f", tv)
	}
	// Node distribution peaks at r/2 = 5.
	peak := 0
	for x := range res.NodePMF {
		if res.NodePMF[x] > res.NodePMF[peak] {
			peak = x
		}
	}
	if peak != 5 {
		t.Errorf("node PMF peaks at %d, want 5", peak)
	}
}

func TestFig7DistributionsClosestNearR10(t *testing.T) {
	// The paper: object and node distributions are closest around
	// r = 10, where load balance is best.
	c := testCorpus(t, 20000)
	tv := map[int]float64{}
	for _, r := range []int{6, 10, 16} {
		res, err := Fig7(c, r)
		if err != nil {
			t.Fatal(err)
		}
		tv[r] = TotalVariation(res.NodePMF, res.ObjectPMF)
	}
	if tv[10] >= tv[6] || tv[10] >= tv[16] {
		t.Errorf("TV distances: r6=%.3f r10=%.3f r16=%.3f — expected minimum at r=10",
			tv[6], tv[10], tv[16])
	}
}

func TestDeploymentEndToEnd(t *testing.T) {
	c := testCorpus(t, 2000)
	d, err := NewDeployment(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		t.Fatal(err)
	}
	// Total indexed objects across servers equals the corpus size.
	total := 0
	for _, s := range d.Servers {
		total += s.Stats().Objects
	}
	if total != c.Len() {
		t.Errorf("indexed %d objects, want %d", total, c.Len())
	}
}

func TestFig8CurveShape(t *testing.T) {
	c := testCorpus(t, 8000)
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{Queries: 1000, Templates: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		t.Fatal(err)
	}
	recalls := []float64{0.2, 0.5, 1.0}
	for _, m := range []int{1, 2} {
		queries := log.PopularOfSize(m, 5)
		if len(queries) == 0 {
			t.Fatalf("no queries of size %d", m)
		}
		line, err := Fig8(d, queries, recalls)
		if err != nil {
			t.Fatal(err)
		}
		// Monotone non-decreasing in recall.
		for i := 1; i < len(line.NodesFrac); i++ {
			if line.NodesFrac[i] < line.NodesFrac[i-1] {
				t.Errorf("m=%d: nodes frac decreased with recall: %v", m, line.NodesFrac)
			}
		}
		// At 100% recall the whole subcube is traversed: the fraction
		// is ≈ 2^-m (slightly above when keyword hashes collide and
		// |One| < m, per the paper's r=8 observation).
		bound := 1 / float64(int(1)<<uint(m))
		last := line.NodesFrac[len(line.NodesFrac)-1]
		if last < 0.5*bound || last > 2.5*bound {
			t.Errorf("m=%d: 100%% recall frac %.4f not within [0.5, 2.5]·2^-m (%.4f)", m, last, bound)
		}
	}
}

func TestFig9CacheReducesContacts(t *testing.T) {
	c := testCorpus(t, 5000)
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries: 3000, Templates: 100, Seed: 7, MaxTemplateResults: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	points, err := Fig9(c, log, 8, []float64{0, 1.0}, 1.0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	noCache, withCache := points[0], points[1]
	if noCache.HitRate != 0 {
		t.Errorf("alpha 0 hit rate = %g", noCache.HitRate)
	}
	if withCache.HitRate < 0.5 {
		t.Errorf("alpha 1.0 hit rate = %.2f, want most queries cached", withCache.HitRate)
	}
	if withCache.AvgNodesFrac >= noCache.AvgNodesFrac/2 {
		t.Errorf("cache cut contacts only from %.4f to %.4f", noCache.AvgNodesFrac, withCache.AvgNodesFrac)
	}
}

func TestOpCostsSingleLookup(t *testing.T) {
	c := testCorpus(t, 500)
	d, err := NewDeployment(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	costs, err := OpCosts(d, c, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range costs {
		if oc.AvgMessages != 2 || oc.AvgNodes != 1 {
			t.Errorf("%s: %.1f msgs / %.1f nodes, want 2 / 1", oc.Op, oc.AvgMessages, oc.AvgNodes)
		}
	}
}

func TestCompareTraversals(t *testing.T) {
	c := testCorpus(t, 3000)
	d, err := NewDeployment(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		t.Fatal(err)
	}
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{Queries: 100, Templates: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	qs := log.PopularOfSize(1, 1)
	if len(qs) == 0 {
		t.Fatal("no size-1 query")
	}
	costs, err := CompareTraversals(d, qs[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("costs = %d", len(costs))
	}
	for _, tc := range costs {
		if tc.Matches == 0 {
			t.Errorf("%v returned no matches", tc.Order)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	c := testCorpus(t, 2000)
	var sb strings.Builder
	RenderFig5(&sb, Fig5(c))
	hyper, _ := Fig6Load(c, SchemeHypercube, 8)
	RenderFig6(&sb, []LoadCurve{hyper}, []float64{0.01, 0.1, 0.5})
	f7, _ := Fig7(c, 8)
	RenderFig7(&sb, f7)
	RenderFig8(&sb, []Fig8Line{{R: 8, M: 1, Recalls: []float64{1}, NodesFrac: []float64{0.5}, Queries: 1}})
	RenderFig9(&sb, 8, 1.0, []Fig9Point{{Alpha: 0.1, AvgNodesFrac: 0.01, HitRate: 0.9, Queries: 10}})
	RenderOpCosts(&sb, []OpCost{{Op: "insert", AvgMessages: 2, AvgNodes: 1, Samples: 5}})
	out := sb.String()
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Section 3.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}

}
