package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	keysearch "github.com/p2pkeyword/keysearch"
)

// toy shrinks a workload for the smoke test: same shape, a fleet and a
// corpus small enough to build in a fraction of a second.
func (w workload) toy() workload {
	w.peers = 4
	w.objects = 400
	if w.templates > 60 {
		w.templates = 60
	}
	w.prefixOps = 40
	w.traceWarm, w.traceOps = 10, 40
	return w
}

// toyRun runs one workload at toy scale: windows of 0.1 s.
func toyRun(t *testing.T, name string, seed int64, dir string) *result {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	toy := w.toy()
	res, err := runWorkload(context.Background(), &toy, runOptions{
		seed: seed, seconds: 0.3, measure: true, trace: true, outDir: dir,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed, first: %s", name, res.Failed, res.Attempted, res.FirstErr)
	}
	return res
}

// TestSmoke runs every workload end to end and checks that each metric
// the catalog names is reported with its unit, that the traced run's
// blocking-path times add up to the op latency, and that the counts the
// paper uses repeat exactly on the two NoCache search workloads.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	first := make(map[string]*result)
	for _, w := range workloads {
		res := toyRun(t, w.name, 1, dir)
		first[w.name] = res
		for _, m := range endToEnd {
			got, ok := res.EndToEnd[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: end-to-end metric %s: got %+v, want unit %q", w.name, m.name, got, m.unit)
			}
			if got.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, got.Value)
			}
		}
		for _, m := range perLayer {
			if got, ok := res.Layers[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: layer metric %s: got %+v, want unit %q", w.name, m.name, got, m.unit)
			}
		}
		if p := res.Trace.PathSumOverLatency; p < 0.999 || p > 1.001 {
			t.Errorf("%s: blocking-path times sum to %.4f of the op latency, want 1", w.name, p)
		}
		if res.Trace.UnmatchedHandlers != 0 {
			t.Errorf("%s: %d handler spans found no Send span", w.name, res.Trace.UnmatchedHandlers)
		}
		if res.Layers["admission.shed"].Value != 0 {
			t.Errorf("%s: admission shed %v requests", w.name, res.Layers["admission.shed"].Value)
		}
		for _, f := range []string{"trace_" + w.name + ".json", "trace_" + w.name + "_summary.json"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		durable := w.durable
		if wrote := res.Layers["store.wal_bytes_per_write"].Value > 0; wrote != durable {
			t.Errorf("%s: WAL written = %v, want %v", w.name, wrote, durable)
		}
		if inserted := res.Layers["core.insert_self_us"].Value > 0; inserted != durable {
			t.Errorf("%s: inserts traced = %v, want %v", w.name, inserted, durable)
		}
	}

	for _, name := range []string{"deep_inmem", "top10_tcp"} {
		again := toyRun(t, name, 1, dir)
		a, b := first[name], again
		if a.InputHash != b.InputHash {
			t.Errorf("%s: same seed, input hashes %s and %s", name, a.InputHash, b.InputHash)
		}
		if !a.LayoutPinned || !b.LayoutPinned {
			t.Logf("%s: a pinned port was taken, counts not compared", name)
			continue
		}
		if x, y := a.EndToEnd["msgs_per_op"].Value, b.EndToEnd["msgs_per_op"].Value; x != y {
			t.Errorf("%s: msgs_per_op %v then %v, want identical", name, x, y)
		}
		if x, y := a.Layers["core.nodes_per_op"].Value, b.Layers["core.nodes_per_op"].Value; x != y {
			t.Errorf("%s: core.nodes_per_op %v then %v, want identical", name, x, y)
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		toy := w.toy()
		hash := func(seed int64) uint64 {
			in, err := generate(&toy, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return in.streamHash(1000)
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 gave op sequence hashes %x and %x", w.name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
	}
}

// A hand-built tree: an op that sends A and, while A is in flight, B;
// B's handler finishes last, so B is the blocking path.
//
//	op      [0 ........................................ 100]
//	send A      [10 ............ 50]
//	handle A       [15 ....... 45]
//	send B            [20 ........................ 90]
//	handle B               [30 ............. 80]
func handBuiltTrace() *trace {
	names := []spanName{{"client.op", "search"}, {"tcpnet.send", "core.msgTQuery"}, {"core.handle", "core.msgTQuery"},
		{"tcpnet.send", "core.msgSubQueryBatch"}, {"core.handle", "core.msgSubQueryBatch"}}
	return &trace{
		names: names, peers: []string{"", "p1", "p2"}, transport: "tcpnet",
		spans: []span{
			{ID: 0, Parent: -1, Start: 0, End: 100, name: 0, kind: kindOp},
			{ID: 1, Parent: 0, Start: 10, End: 50, name: 1, peer: 1, kind: kindSend},
			{ID: 2, Parent: -1, Start: 15, End: 45, name: 2, peer: 1, kind: kindHandle},
			{ID: 3, Parent: 0, Start: 20, End: 90, name: 3, peer: 2, kind: kindSend},
			{ID: 4, Parent: -1, Start: 30, End: 80, name: 4, peer: 2, kind: kindHandle},
		},
	}
}

func TestSelfTimeAndBlockingPath(t *testing.T) {
	tr := handBuiltTrace()
	if n := tr.resolveParents(); n != 0 {
		t.Fatalf("%d handlers unmatched", n)
	}
	if tr.spans[2].Parent != 1 || tr.spans[4].Parent != 3 {
		t.Fatalf("handler parents %d and %d, want 1 and 3", tr.spans[2].Parent, tr.spans[4].Parent)
	}
	kids := childIndex(tr.spans)
	// The op's children cover [10,90]; each Send minus its handler.
	wantSelf := []int64{20, 10, 30, 20, 50}
	for id, want := range wantSelf {
		if got := selfTime(tr.spans, kids, int32(id)); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	path := make(map[int32]int64)
	blockingPath(tr.spans, kids, 0, func(id int32, ns int64) { path[id] += ns })
	wantPath := map[int32]int64{0: 30, 3: 20, 4: 50}
	var total int64
	for id, ns := range path {
		total += ns
		if ns != wantPath[id] {
			t.Errorf("blocking path gives span %d %d ns, want %d", id, ns, wantPath[id])
		}
	}
	if total != 100 {
		t.Errorf("blocking path sums to %d, want the op's 100", total)
	}

	sum := handBuiltTrace().summarize(1)
	if got := sum.Layers["core.scan"].PathUsPerOp; got != 0.05 {
		t.Errorf("core.scan path = %v us, want 0.05", got)
	}
	if got := sum.Layers["core.root"].SelfUsPerOp; got != 0.03 {
		t.Errorf("core.root self = %v us, want 0.03", got)
	}
	if sum.SelfSumOverLatency != 1.3 || sum.PathSumOverLatency != 1 {
		t.Errorf("self/latency %v (want 1.3), path/latency %v (want 1)", sum.SelfSumOverLatency, sum.PathSumOverLatency)
	}
}

func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	w, _ := workloadByName("top10_tcp")
	toy := w.toy()
	in, err := generate(&toy, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A template with at least two matches, and an object outside its answer.
	var tpl *template
	for i := range in.templates {
		if in.templates[i].want.size() >= 2 {
			tpl = &in.templates[i]
			break
		}
	}
	if tpl == nil {
		t.Fatal("no template with two matches")
	}
	var outsider string
	for _, r := range in.records {
		if _, ok := tpl.want.ids[r.id]; !ok {
			outsider = r.id
			break
		}
	}
	good := keysearch.Result{Completeness: 1}
	for id := range tpl.want.ids {
		good.Matches = append(good.Matches, keysearch.Match{ObjectID: id})
	}
	threshold := all
	c := newChecker()
	if err := c.checkResult(good, tpl.want, threshold, 0); err != nil {
		t.Fatalf("oracle rejects its own answer: %v", err)
	}
	corrupt := func(name string, edit func(r *keysearch.Result)) {
		r := good
		r.Matches = append([]keysearch.Match(nil), good.Matches...)
		edit(&r)
		if err := c.checkResult(r, tpl.want, threshold, 0); err == nil {
			t.Errorf("oracle accepted an answer with %s", name)
		}
	}
	corrupt("a foreign object", func(r *keysearch.Result) { r.Matches[0].ObjectID = outsider })
	corrupt("a missing object", func(r *keysearch.Result) { r.Matches = r.Matches[1:] })
	corrupt("a duplicate", func(r *keysearch.Result) { r.Matches[1] = r.Matches[0] })
	corrupt("completeness below 1", func(r *keysearch.Result) { r.Completeness = 0.5 })

	// Top-k: exactly min(k, |oracle|) matches, unless records are in flight.
	two := newAnswer([]string{good.Matches[0].ObjectID, good.Matches[1].ObjectID})
	short := good
	short.Matches = good.Matches[:1]
	if err := c.checkResult(short, two, 1, 0); err != nil {
		t.Errorf("top-1 answer of one match rejected: %v", err)
	}
	if err := c.checkResult(short, two, 10, 0); err == nil {
		t.Error("top-10 answer of one match accepted though the oracle has two")
	}
	if err := c.checkResult(short, two, 10, 1); err != nil {
		t.Errorf("answer short by one rejected with one record in flight: %v", err)
	}
	if err := c.checkPin([]string{outsider}, tpl.want, 0); err == nil {
		t.Error("pin answer with a foreign object accepted")
	}
}

// TestSpecMatchesCatalog keeps BENCHMARK.json and the program's metric
// catalog and workload list in step.
func TestSpecMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(spec.Workloads[i].Why) > 200 || strings.Contains(spec.Workloads[i].Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("spec has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("end-to-end %d: spec %+v, program %+v", i, s, m)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if s := spec.PerLayer[i]; s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("layer %d: spec %+v, program %+v", i, s, m)
		}
	}
}

// A fleet that cannot bind a pinned port still runs, on another ring
// layout; the result says so and -compare refuses to judge it.
func TestBusyPortMarksLayout(t *testing.T) {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", tcpBasePort+1))
	if err != nil {
		t.Skipf("port already taken by another process: %v", err)
	}
	defer l.Close()
	w, _ := workloadByName("top10_tcp")
	toy := w.toy()
	in, err := generate(&toy, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := buildFleet(context.Background(), in, fleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.close()
	if f.pinned {
		t.Error("fleet reports a pinned layout though one of its ports was taken")
	}

	dir := t.TempDir()
	write := func(name string, pinned bool) string {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.name] = metricValue{Value: 1, Unit: d.unit}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &runFile{Workloads: []*result{{Workload: "top10_tcp", EndToEnd: m, LayoutPinned: pinned}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	code, err := compareFiles(&out, filepath.Join("..", "..", "BENCHMARK.json"), write("a.json", true), write("b.json", false))
	if err != nil || code != 0 {
		t.Fatalf("compare: code %d, err %v", code, err)
	}
	if want := fmt.Sprintf("unresolved %d", len(endToEnd)); !strings.Contains(out.String(), want) {
		t.Errorf("compare output lacks %q:\n%s", want, out.String())
	}
}

func TestSpreadMatchesQuartiles(t *testing.T) {
	// statistics.quantiles(v, n=4) of these gives [3.0, 6.0, 9.0] and
	// [1.0, 2.0, 4.0].
	if got, want := spread([]float64{1, 3, 5, 7, 9, 2, 10, 4, 8, 6, 12}), (9.0-3.0)/6.0; got != want {
		t.Errorf("spread of eleven values = %v, want %v", got, want)
	}
	if got, want := spread([]float64{2, 4, 1}), 3.0/2; got != want {
		t.Errorf("spread of three values = %v, want (max-min)/median = %v", got, want)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got < 0.999 || got > 1.001 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	mv := func(v float64, ws ...float64) metricValue { return metricValue{Value: v, Windows: ws} }
	cases := []struct {
		name   string
		a, b   metricValue
		lower  bool
		bound  float64
		expect string
	}{
		{"within bound", mv(100, 99, 100, 101), mv(104, 103, 104, 105), true, 0.10, "same"},
		{"slower", mv(100, 99, 100, 101), mv(120, 119, 120, 121), true, 0.10, "worse"},
		{"faster", mv(100, 99, 100, 101), mv(80, 79, 80, 81), true, 0.10, "better"},
		{"throughput fell", mv(1000), mv(850), false, 0.10, "worse"},
		{"throughput rose", mv(1000), mv(1200), false, 0.10, "better"},
		{"windows wider than the bound", mv(100, 80, 100, 120), mv(104, 90, 104, 130), true, 0.10, "unresolved"},
		{"wide but separated", mv(100, 90, 100, 115), mv(60, 55, 60, 70), true, 0.10, "better"},
		{"wide and every window worse", mv(100, 90, 100, 115), mv(160, 140, 160, 190), true, 0.10, "worse"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.lower, c.bound); got != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.expect)
		}
	}
}
