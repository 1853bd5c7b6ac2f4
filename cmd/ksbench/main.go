// Command ksbench regenerates every table and figure of the paper's
// evaluation (Section 4) against the synthetic PCHome-substitute
// workload, printing the same series the paper plots.
//
// Examples:
//
//	ksbench -fig 5                  # keyword-set-size distribution
//	ksbench -fig 6                  # load distribution, r = 6..16 + DII
//	ksbench -fig 7                  # object vs node distributions
//	ksbench -fig 8                  # cacheless query performance
//	ksbench -fig 9                  # query performance with cache
//	ksbench -fig eq1                # Equation (1) check
//	ksbench -fig costs              # Section 3.5 operation costs
//	ksbench -fig prefix             # prefix multicast vs fan-out costs
//	ksbench -fig all -objects 20000 # everything, smaller corpus
//
// The full paper-scale corpus (131,180 objects, 178,000 queries) is
// the default; use -objects and -queries to scale down for quick runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/analytic"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/sim"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ksbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ksbench", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9, eq1, costs, ft, hotspot, batch, churn, prefix, or all")
		objects   = fs.Int("objects", corpus.DefaultObjects, "corpus size (paper: 131180)")
		queries   = fs.Int("queries", 178000, "query-log length for fig 9 (paper: ~178000/day)")
		templates = fs.Int("templates", 2000, "distinct query templates")
		seed      = fs.Int64("seed", 1, "workload seed")
		fig8R     = fs.String("fig8-r", "8,10,12", "dimensions for figure 8")
		fig8Q     = fs.Int("fig8-queries", 10, "sampled popular queries per (r, m)")
		fig9R     = fs.String("fig9-r", "10,12", "dimensions for figure 9")
		fig9Max   = fs.Int("fig9-max", 0, "cap on replayed queries (0 = full log)")
		fig9Res   = fs.Int("fig9-maxresults", 20, "result-size cap for fig 9 query templates (see EXPERIMENTS.md)")
		telem     = fs.Bool("telemetry", false, "instrument the simulated deployments and print a JSON registry snapshot after the run")
		batchN    = fs.Int("batch-peers", 64, "physical fleet size for the 'batch' study")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ksbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ksbench: memprofile:", err)
			}
		}()
	}
	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.New(256)
	}

	fmt.Fprintf(os.Stderr, "generating corpus (%d objects)...\n", *objects)
	c, err := corpus.Generate(corpus.Config{Objects: *objects, Seed: *seed})
	if err != nil {
		return err
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	out := os.Stdout

	if want("5") {
		sim.RenderFig5(out, sim.Fig5(c))
		fmt.Fprintln(out)
	}
	if want("6") {
		if err := runFig6(out, c); err != nil {
			return err
		}
	}
	if want("7") {
		for _, r := range []int{6, 8, 10, 12, 13, 14, 15, 16} {
			res, err := sim.Fig7(c, r)
			if err != nil {
				return err
			}
			sim.RenderFig7(out, res)
			fmt.Fprintln(out)
		}
		if err := renderChooseDimension(out, c); err != nil {
			return err
		}
	}
	if want("eq1") {
		renderEq1(out)
	}

	if want("8") {
		fmt.Fprintf(os.Stderr, "generating fig8 query log (%d queries, %d templates)...\n", *queries, *templates)
		log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
			Queries:   *queries,
			Templates: *templates,
			Seed:      *seed + 1,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fig8 query log: top-10 templates account for %.1f%% of volume (paper: >60%%)\n\n",
			100*log.TopShare(10))
		if err := runFig8(out, c, log, parseInts(*fig8R), *fig8Q, reg); err != nil {
			return err
		}
	}
	if want("9") {
		fmt.Fprintf(os.Stderr, "generating fig9 query log (%d queries, %d templates, results ≤ %d)...\n",
			*queries, *templates, *fig9Res)
		log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
			Queries:            *queries,
			Templates:          *templates,
			Seed:               *seed + 1,
			MaxTemplateResults: *fig9Res,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fig9 query log: top-10 templates account for %.1f%% of volume (paper: >60%%)\n\n",
			100*log.TopShare(10))
		if err := runFig9(out, c, log, parseInts(*fig9R), *fig9Max, reg); err != nil {
			return err
		}
	}
	if want("costs") {
		if err := runCosts(out, c, reg); err != nil {
			return err
		}
	}
	if want("batch") {
		log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
			Queries: *queries, Templates: *templates, Seed: *seed + 1,
		})
		if err != nil {
			return err
		}
		if err := runBatchStudy(out, c, log, *batchN); err != nil {
			return err
		}
	}
	if want("ft") {
		if err := runFaultStudy(out, c, *seed); err != nil {
			return err
		}
	}
	if want("prefix") {
		if err := runPrefixStudy(out, c); err != nil {
			return err
		}
	}
	if want("churn") {
		if err := runChurnStudy(out, c, *seed); err != nil {
			return err
		}
	}
	if want("hotspot") {
		log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
			Queries: *queries, Templates: *templates, Seed: *seed + 1,
		})
		if err != nil {
			return err
		}
		res, err := sim.HotSpots(log, 10)
		if err != nil {
			return err
		}
		sim.RenderHotSpots(out, res)
		fmt.Fprintln(out)
	}
	if reg != nil {
		fmt.Fprintln(out, "telemetry snapshot:")
		if err := reg.WriteJSON(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runFaultStudy regenerates the fault-tolerance comparison implied by
// Sections 1 and 3.4: graceful hypercube degradation versus DII
// query blocking under crash-stop failures.
func runFaultStudy(out *os.File, c *corpus.Corpus, seed int64) error {
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries: 2000, Templates: 300, Seed: seed + 2,
	})
	if err != nil {
		return err
	}
	queries := sim.FaultStudyQueries(log, 10)
	fmt.Fprintf(os.Stderr, "fault study: %d queries over 2^10 nodes...\n", len(queries))
	points, err := sim.FaultTolerance(c, 10, queries, []float64{0, 0.05, 0.1, 0.2, 0.3}, seed)
	if err != nil {
		return err
	}
	sim.RenderFaultStudy(out, 10, points)
	fmt.Fprintln(out)
	return nil
}

// runChurnStudy measures live-churn correctness end to end at peer
// level: a fleet under seed-generated joins and graceful leaves — with
// chunked, throttled index migrations keeping double-read windows open
// across query boundaries — must answer the query run byte-identically
// (fingerprint-equal) to a static fleet that never churned, and the
// final sweep after healing must find every published entry.
func runChurnStudy(out *os.File, c *corpus.Corpus, seed int64) error {
	const (
		basePeers = 8
		subset    = 150
		nJoins    = 4
		nLeaves   = 3
	)
	recs := c.Records()
	if len(recs) > subset {
		recs = recs[:subset]
	}
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Queries: 2000, Templates: 300, Seed: seed + 3,
	})
	if err != nil {
		return err
	}
	queries := sim.FaultStudyQueries(log, 5)
	if len(queries) < 2 {
		return fmt.Errorf("churn study: query log yielded %d queries", len(queries))
	}
	// The sweep keyword is the subset's most frequent one, so the final
	// query proves zero entries were lost across every transfer.
	freq := map[string]int{}
	for _, r := range recs {
		for _, w := range r.Keywords.Words() {
			freq[w]++
		}
	}
	sweep, sweepN := "", 0
	for w, n := range freq {
		if n > sweepN || (n == sweepN && w < sweep) {
			sweep, sweepN = w, n
		}
	}

	leavable := make([]keysearch.Addr, 0, basePeers-2)
	for i := 1; i <= basePeers-2; i++ {
		leavable = append(leavable, keysearch.Addr("peer-"+strconv.Itoa(i)))
	}
	sched, err := sim.GenerateChurn(seed, sim.ChurnConfig{
		Queries: len(queries), Joins: nJoins, Leaves: nLeaves, Leavable: leavable,
	})
	if err != nil {
		return err
	}

	run := func(churn bool) (fp string, outcomes []sim.QueryOutcome, totals core.MigrationStats, finalFound int, err error) {
		ctx := context.Background()
		cfg := keysearch.Config{Dim: 10, MigrateChunkEntries: 4, MigrateThrottle: 10 * time.Millisecond}
		cl, err := keysearch.NewLocalCluster(basePeers, cfg)
		if err != nil {
			return "", nil, totals, 0, err
		}
		defer cl.Close()
		for _, r := range recs {
			obj := keysearch.Object{ID: r.ID, Keywords: r.Keywords}
			if err := cl.Peers[0].Publish(ctx, obj, "corpus://"+r.ID); err != nil {
				return "", nil, totals, 0, fmt.Errorf("churn study publish %s: %w", r.ID, err)
			}
		}
		live := append([]*keysearch.Peer(nil), cl.Peers...)
		tally := func(p *keysearch.Peer) {
			st := p.MigrationStats()
			totals.Chunks += st.Chunks
			totals.Entries += st.Entries
			totals.Bytes += st.Bytes
			totals.Resumes += st.Resumes
			totals.DoubleReads += st.DoubleReads
			totals.Commits += st.Commits
			totals.Failures += st.Failures
		}
		stabilize := func(rounds int) {
			for r := 0; r < rounds; r++ {
				for _, p := range live {
					_ = p.StabilizeOnce(ctx)
				}
			}
		}
		quiesce := func() error {
			qctx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			for _, p := range live {
				if err := p.WaitMigrationsIdle(qctx); err != nil {
					return fmt.Errorf("churn study quiesce: %w", err)
				}
			}
			return nil
		}
		joinCfg := cfg
		joinCfg.MaintenanceInterval = -1
		apply := func(ev sim.FaultEvent) error {
			switch ev.Kind {
			case sim.FaultJoin:
				p, err := keysearch.NewPeer(cl.Network(), ev.Node, joinCfg)
				if err != nil {
					return err
				}
				if err := p.Join(ctx, cl.Peers[0].Addr()); err != nil {
					return err
				}
				live = append(live, p)
				cl.Peers = append(cl.Peers, p)
				stabilize(4)
			case sim.FaultLeave:
				if err := quiesce(); err != nil {
					return err
				}
				for i, p := range live {
					if p.Addr() != ev.Node {
						continue
					}
					tally(p)
					if _, err := p.Leave(ctx); err != nil {
						return fmt.Errorf("leave %s: %w", ev.Node, err)
					}
					live = append(live[:i], live[i+1:]...)
					break
				}
				// A departure leaves stale fingers behind; repair is
				// incremental, so converge fully — searches across a
				// half-repaired ring fail subtrees, which is a chord
				// routing artifact, not a migration one.
				stabilize(3*len(live) + 3)
			}
			return nil
		}

		outs := make([]sim.QueryOutcome, 0, len(queries)+1)
		record := func(q keyword.Set) int {
			res, err := live[0].Search(ctx, q, core.All, core.SearchOptions{NoCache: true})
			out := sim.QueryOutcome{QueryKey: q.Key(), Completeness: 1}
			if err != nil {
				out.Err = err.Error()
				out.Completeness = 0
			} else {
				out.Completeness = res.Completeness
				out.FailedSubtrees = res.FailedSubtrees
				for _, m := range res.Matches {
					out.ObjectIDs = append(out.ObjectIDs, m.ObjectID)
				}
			}
			outs = append(outs, out)
			return len(out.ObjectIDs)
		}
		ei := 0
		for qi, q := range queries {
			if churn {
				for ei < len(sched.Events) && sched.Events[ei].AtQuery <= qi {
					if err := apply(sched.Events[ei]); err != nil {
						return "", nil, totals, 0, err
					}
					ei++
				}
			}
			record(q)
		}
		if err := quiesce(); err != nil {
			return "", nil, totals, 0, err
		}
		stabilize(3*len(live) + 3)
		if err := quiesce(); err != nil {
			return "", nil, totals, 0, err
		}
		finalFound = record(keyword.NewSet(sweep))
		for _, p := range live {
			tally(p)
		}
		rep := sim.ChaosReport{Outcomes: outs}
		return rep.Fingerprint(), outs, totals, finalFound, nil
	}

	fmt.Fprintf(os.Stderr, "churn study: %d base peers, +%d joins, -%d leaves over %d queries...\n",
		basePeers, nJoins, nLeaves, len(queries))
	staticFP, staticOuts, _, staticFound, err := run(false)
	if err != nil {
		return err
	}
	churnFP, churnOuts, totals, churnFound, err := run(true)
	if err != nil {
		return err
	}
	if staticFP != churnFP {
		for i := range staticOuts {
			if i < len(churnOuts) && !reflect.DeepEqual(staticOuts[i], churnOuts[i]) {
				fmt.Fprintf(os.Stderr, "diverged at query %d (%s):\n  static  %+v\n  churned %+v\n",
					i, staticOuts[i].QueryKey, staticOuts[i], churnOuts[i])
			}
		}
	}

	fmt.Fprintf(out, "live churn study (seed %d): %d base peers, +%d joins, -%d graceful leaves, %d queries, %d-object subset\n",
		seed, basePeers, nJoins, nLeaves, len(queries), len(recs))
	fmt.Fprintf(out, "  static  fleet fingerprint: %s\n", staticFP)
	fmt.Fprintf(out, "  churned fleet fingerprint: %s\n", churnFP)
	verdict := "MATCH — answers byte-identical under churn"
	if staticFP != churnFP {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(out, "  verdict: %s\n", verdict)
	fmt.Fprintf(out, "  migration under churn: %d commits, %d chunks, %d entries, %d bytes, %d resumes, %d failures\n",
		totals.Commits, totals.Chunks, totals.Entries, totals.Bytes, totals.Resumes, totals.Failures)
	// How many reads land in an open window depends on how they
	// interleave with the pulls, so the count varies from run to run;
	// it goes to stderr, not to the recorded study.
	fmt.Fprintf(os.Stderr, "churn study: %d double-reads\n", totals.DoubleReads)
	fmt.Fprintf(out, "  final sweep %q: %d objects (static fleet: %d, subset frequency: %d)\n\n",
		sweep, churnFound, staticFound, sweepN)
	if staticFP != churnFP {
		return fmt.Errorf("churn study: fingerprints diverged")
	}
	if churnFound != staticFound || churnFound != sweepN {
		return fmt.Errorf("churn study: final sweep found %d objects, static %d, want %d", churnFound, staticFound, sweepN)
	}
	return nil
}

// runPrefixStudy records the prefix-multicast cost comparison: the
// exclusion-mask multicast versus the naive per-dimension fan-out
// (the Figure 6 DII-style per-keyword-index cost model), on the most
// frequent 3- and 2-character keyword prefixes of the corpus.
func runPrefixStudy(out *os.File, c *corpus.Corpus) error {
	prefixes := sim.PrefixStudyPrefixes(c, 3, 8)
	prefixes = append(prefixes, sim.PrefixStudyPrefixes(c, 2, 4)...)
	seen := map[string]bool{}
	deduped := prefixes[:0]
	for _, p := range prefixes {
		if !seen[p] {
			seen[p] = true
			deduped = append(deduped, p)
		}
	}
	fmt.Fprintf(os.Stderr, "prefix study: %d prefixes over 2^10 nodes (multicast vs per-dimension fan-out)...\n",
		len(deduped))
	res, err := sim.PrefixStudy(c, deduped, 10)
	if err != nil {
		return err
	}
	sim.RenderPrefixStudy(out, res)
	fmt.Fprintln(out)
	for _, p := range res.Points {
		if !p.Identical {
			return fmt.Errorf("prefix study: %q answer sets diverge between strategies", p.Prefix)
		}
	}
	return nil
}

func runFig6(out *os.File, c *corpus.Corpus) error {
	var curves []sim.LoadCurve
	for _, r := range []int{6, 8, 10, 12, 14, 16} {
		for _, scheme := range []sim.LoadScheme{sim.SchemeHypercube, sim.SchemeDHT} {
			lc, err := sim.Fig6Load(c, scheme, r)
			if err != nil {
				return err
			}
			curves = append(curves, lc)
		}
	}
	for _, r := range []int{10, 12, 14} {
		lc, err := sim.Fig6Load(c, sim.SchemeDII, r)
		if err != nil {
			return err
		}
		curves = append(curves, lc)
	}
	sim.RenderFig6(out, curves, []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75})
	fmt.Fprintln(out)
	return nil
}

func renderChooseDimension(out *os.File, c *corpus.Corpus) error {
	r, err := analytic.ChooseDimension(c.SizePMF(), 6, 16)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "analytic dimension choice from the Fig.5 histogram: r = %d (paper's empirical optimum: 10)\n\n", r)
	return nil
}

func renderEq1(out *os.File) {
	fmt.Fprintln(out, "Equation (1) — P(|One(F_h(K))| = j) and expectation")
	fmt.Fprintf(out, "%-10s %-6s", "r / m", "E[j]")
	for j := 1; j <= 8; j++ {
		fmt.Fprintf(out, " %7s", "j="+strconv.Itoa(j))
	}
	fmt.Fprintln(out)
	for _, rm := range [][2]int{{8, 3}, {10, 5}, {10, 7}, {12, 7}, {16, 7}} {
		r, m := rm[0], rm[1]
		e, _ := analytic.ExpectedOneBits(r, m)
		fmt.Fprintf(out, "%-10s %-6.2f", fmt.Sprintf("r=%d m=%d", r, m), e)
		for j := 1; j <= 8; j++ {
			p, _ := analytic.OneBitsPMF(r, m, j)
			fmt.Fprintf(out, " %7.4f", p)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
}

func runFig8(out *os.File, c *corpus.Corpus, log *corpus.QueryLog, rs []int, perM int, reg *telemetry.Registry) error {
	recalls := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	for _, r := range rs {
		fmt.Fprintf(os.Stderr, "fig8: deploying 2^%d index nodes and inserting corpus...\n", r)
		d, err := sim.NewCustomDeployment(sim.DeployConfig{R: r, Telemetry: reg})
		if err != nil {
			return err
		}
		if err := d.InsertCorpus(c); err != nil {
			d.Close()
			return err
		}
		var lines []sim.Fig8Line
		for m := 1; m <= 5; m++ {
			qs := log.PopularOfSize(m, perM)
			if len(qs) == 0 {
				continue
			}
			line, err := sim.Fig8(d, qs, recalls)
			if err != nil {
				d.Close()
				return err
			}
			lines = append(lines, line)
		}
		sim.RenderFig8(out, lines)
		fmt.Fprintln(out)
		d.Close()
	}
	return nil
}

func runFig9(out *os.File, c *corpus.Corpus, log *corpus.QueryLog, rs []int, maxQueries int, reg *telemetry.Registry) error {
	alphas := []float64{0, 1.0 / 48, 1.0 / 24, 1.0 / 12, 1.0 / 6, 1.0 / 3}
	for _, r := range rs {
		for _, recall := range []float64{0.5, 1.0} {
			fmt.Fprintf(os.Stderr, "fig9: r=%d recall=%.0f%% replaying queries across %d cache sizes...\n",
				r, 100*recall, len(alphas))
			points, err := sim.Fig9Instrumented(c, log, r, alphas, recall, maxQueries, reg)
			if err != nil {
				return err
			}
			sim.RenderFig9(out, r, recall, points)
			fmt.Fprintln(out)
		}
	}
	return nil
}

// runBatchStudy measures physical-frame savings of wave batching on a
// folded deployment: 2^10 logical vertices on a peers-node fleet.
func runBatchStudy(out *os.File, c *corpus.Corpus, log *corpus.QueryLog, peers int) error {
	var queries []keyword.Set
	for m := 1; m <= 3; m++ {
		queries = append(queries, log.PopularOfSize(m, 3)...)
	}
	fmt.Fprintf(os.Stderr, "batch study: %d queries over 2^10 vertices on %d peers (batched vs unbatched)...\n",
		len(queries), peers)
	res, err := sim.BatchStudy(c, queries, 10, peers, 0)
	if err != nil {
		return err
	}
	sim.RenderBatchStudy(out, res)
	fmt.Fprintln(out)
	return nil
}

func runCosts(out *os.File, c *corpus.Corpus, reg *telemetry.Registry) error {
	d, err := sim.NewCustomDeployment(sim.DeployConfig{R: 10, Telemetry: reg})
	if err != nil {
		return err
	}
	defer d.Close()
	costs, err := sim.OpCosts(d, c, 200)
	if err != nil {
		return err
	}
	sim.RenderOpCosts(out, costs)
	fmt.Fprintln(out)
	return nil
}

func parseInts(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, err := strconv.Atoi(part); err == nil {
			out = append(out, v)
		}
	}
	return out
}
