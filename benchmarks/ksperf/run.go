package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

const (
	windowsPerRun = 3
	// noisyAbove is the spread of the windows' ops_per_s beyond which
	// the three windows are measured once more.
	noisyAbove = 0.10
	// setupRepeats fleets are built per measured run; setup_s is the
	// median, so a disturbed build does not move it.
	setupRepeats = 5
	// maxRankAnswers bounds the answers kept for the rank timing.
	maxRankAnswers = 64
)

// runOptions are the knobs of one workload run.
type runOptions struct {
	seed    int64
	seconds float64 // measured time: windowsPerRun windows of seconds/3
	measure bool    // report the end-to-end metrics (three set-ups)
	trace   bool    // also run the traced fleet and report layer metrics
	outDir  string  // trace files and durable peers' data
}

// result is one workload's entry in the result file.
type result struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      int64                  `json:"seed"`
	InputHash string                 `json:"input_hash"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	FailFrac  float64                `json:"fail_frac"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
	Windows   []window               `json:"windows"`
	// Noisy is set when the first three windows' ops_per_s spread
	// exceeded noisyAbove; Windows then holds the re-run and
	// DisturbedWindows the first set.
	Noisy            bool     `json:"noisy"`
	DisturbedWindows []window `json:"disturbed_windows,omitempty"`
	// LayoutPinned is false when some fleet of the run could not bind its
	// pinned ports: its ring layout, and with it msgs_per_op and the
	// timings, are then not comparable with other runs'.
	LayoutPinned bool          `json:"layout_pinned"`
	SetupSeconds []float64     `json:"setup_seconds"`
	Trace        *traceSummary `json:"trace,omitempty"`
}

func (o runOptions) tmpRoot() string { return filepath.Join(o.outDir, "tmp") }

var never atomic.Bool // a stop flag that is never set

// runWorkload generates the workload's inputs from the seed, measures
// it end to end on an untraced fleet and, when asked, per layer on a
// traced one.
func runWorkload(ctx context.Context, w *workload, opt runOptions) (*result, error) {
	in, err := generate(w, opt.seed)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Why: w.why, Seed: opt.seed, LayoutPinned: true,
		InputHash: fmt.Sprintf("%016x", in.streamHash(2000)),
	}

	repeats := 1
	if opt.measure {
		repeats = setupRepeats
	}
	var f *fleet
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC() // every build starts from a collected heap
		var took time.Duration
		f, took, err = buildFleet(ctx, in, fleetOptions{tmpRoot: opt.tmpRoot()})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupSeconds = append(res.SetupSeconds, took.Seconds())
		res.LayoutPinned = res.LayoutPinned && f.pinned
	}
	defer func() { f.close() }()

	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = newCaller(i, in, f)
	}
	win := time.Duration(opt.seconds / windowsPerRun * float64(time.Second))
	runWindow(ctx, cs, win) // warm-up: connections, resolver caches, result caches, hot roots
	res.tally(cs...)
	for _, c := range cs {
		c.startMeasured()
	}
	measureWindows := func() []window {
		out := make([]window, windowsPerRun)
		for i := range out {
			out[i] = runWindow(ctx, cs, win)
			res.tally(cs...)
		}
		return out
	}
	res.Windows = measureWindows()
	if spread(column(res.Windows, func(w window) float64 { return w.OpsPerS })) > noisyAbove {
		res.Noisy = true
		res.DisturbedWindows = res.Windows
		res.Windows = measureWindows()
	}

	// msgs_per_op is over a fixed op prefix: callers the timed windows
	// stopped short of it finish it here, untimed.
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.reset()
			for c.prefix.Reads < w.prefixOps && c.failed == 0 {
				c.run(ctx, &never, 1)
			}
		}(c)
	}
	wg.Wait()
	res.tally(cs...)
	var prefix costs
	for _, c := range cs {
		prefix.Msgs += c.prefix.Msgs
		prefix.Reads += c.prefix.Reads
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	if opt.measure {
		res.EndToEnd = endToEndMetrics(res, prefix, mem.HeapAlloc)
	}
	if opt.trace {
		// The one-caller fleets reuse the pinned ports.
		f.close()
		f = &fleet{}
		if err := res.traceLayers(ctx, in, opt); err != nil {
			return nil, err
		}
	}
	if res.Attempted > 0 {
		res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

// tally adds the ops the callers ran since their samples were last
// reset (runWindow resets them when it starts).
func (r *result) tally(cs ...*caller) {
	for _, c := range cs {
		r.Attempted += len(c.lat) + c.failed
		r.Failed += c.failed
		if c.firstErr != nil && r.FirstErr == "" {
			r.FirstErr = c.firstErr.Error()
		}
	}
}

func (r *result) addRun(o *oneCaller) {
	r.LayoutPinned = r.LayoutPinned && o.pinned
	r.Attempted += o.attempted
	r.Failed += o.failed
	if o.firstErr != nil && r.FirstErr == "" {
		r.FirstErr = o.firstErr.Error()
	}
}

func column(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// middle drops the smallest and the largest of v: one cold or disturbed
// build of the five must not make set-up look unresolvable.
func middle(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 3 {
		return s
	}
	return s[1 : len(s)-1]
}

func endToEndMetrics(res *result, prefix costs, heap uint64) map[string]metricValue {
	ws := res.Windows
	med := func(unit string, f func(window) float64) metricValue {
		v := column(ws, f)
		return metricValue{Value: median(v), Unit: unit, Windows: v}
	}
	var alloc uint64
	ops := 0
	for _, w := range ws {
		alloc += w.allocB
		ops += w.Ops + w.Failed
	}
	return map[string]metricValue{
		"ops_per_s":       med("op/s", func(w window) float64 { return w.OpsPerS }),
		"p50_us":          med("us", func(w window) float64 { return w.P50us }),
		"p90_us":          med("us", func(w window) float64 { return w.P90us }),
		"msgs_per_op":     {Value: ratio(float64(prefix.Msgs), float64(prefix.Reads)), Unit: "msg/op"},
		"alloc_kb_per_op": {Value: ratio(float64(alloc)/1024, float64(ops)), Unit: "KiB/op"},
		"heap_mb":         {Value: float64(heap) / (1 << 20), Unit: "MiB"},
		"setup_s":         {Value: median(res.SetupSeconds), Unit: "s", Windows: middle(res.SetupSeconds)},
	}
}

// traceLayers fills res.Layers: the caller-side and runtime numbers of
// the measured windows, then a traced fleet for spans and telemetry
// deltas, then the direct timings.
func (r *result) traceLayers(ctx context.Context, in *inputs, opt runOptions) error {
	w := in.w
	vals := make(map[string]float64)
	ws := r.Windows
	vals["client.p99_us"] = median(column(ws, func(w window) float64 { return w.P99us }))
	vals["client.max_us"] = median(column(ws, func(w window) float64 { return w.Maxus }))
	vals["client.window_spread"] = spread(column(ws, func(w window) float64 { return w.OpsPerS }))
	for _, win := range ws {
		vals["runtime.gc_cycles"] += float64(win.gcCycles)
		vals["runtime.gc_pause_ms_total"] += float64(win.gcPause) / 1e6
		if g := float64(win.gorPeak); g > vals["runtime.goroutines_peak"] {
			vals["runtime.goroutines_peak"] = g
		}
	}

	// trace.overhead_frac: the same ops from one caller on fresh fleets,
	// plain, then with the telemetry registry and the recording transport
	// wrapper, then plain again; the two plain runs bracket the traced one
	// so a slow phase of the box does not pass for overhead.
	var plainOpsPerS float64
	var tr *oneCaller
	for _, record := range []bool{false, true, false} {
		run, err := oneCallerRun(ctx, in, opt, record)
		if err != nil {
			return err
		}
		r.addRun(run)
		if record {
			tr = run
		} else {
			plainOpsPerS += run.opsPerS / 2
		}
	}
	tr.summary.UntracedOpsPerS = plainOpsPerS
	if err := writeTrace(opt.outDir, tr.summary, tr.spans); err != nil {
		return err
	}
	sum := tr.summary
	r.Trace = sum
	vals["trace.overhead_frac"] = 1 - ratio(tr.opsPerS, plainOpsPerS)

	layer := func(name string) spanTotals {
		if b := sum.Layers[name]; b != nil {
			return *b
		}
		return spanTotals{}
	}
	reads := float64(tr.costs.Reads)
	vals["core.nodes_per_op"] = ratio(float64(tr.costs.Nodes), reads)
	vals["core.rounds_per_op"] = ratio(float64(tr.costs.Rounds), reads)
	vals["core.phys_frames_per_op"] = ratio(float64(tr.costs.Frames), reads)
	vals["core.matches_per_op"] = ratio(float64(tr.costs.Matches), reads)
	vals["core.root_self_us"] = layer("core.root").SelfUsPerOp
	vals["core.scan_self_us_per_vertex"] = ratio(float64(layer("core.scan").selfNS)/1e3, float64(tr.costs.Nodes))
	vals["core.insert_self_us"] = layer("core.insert").SelfUsPerOp
	vals["core.delete_self_us"] = layer("core.delete").SelfUsPerOp
	vals["chord.rpc_self_us"] = layer("chord").SelfUsPerOp
	if w.tcp {
		vals["tcpnet.rtt_self_us_p50"] = sum.RTTSelfUsP50
		vals["tcpnet.rtt_self_us_p99"] = sum.RTTSelfUsP99
		vals["tcpnet.sends_per_op"] = layer("tcpnet").SpansPerOp
	} else {
		vals["inmem.send_self_us"] = layer("inmem").SelfUsPerOp
	}
	for k, v := range telemetryDeltas(tr.before, tr.after, sum.Ops, tr.costs.Reads) {
		vals[k] = v
	}
	direct, err := directTimings(in, tr.bodies, rankAnswers(in), opt.tmpRoot(), time.Duration(opt.seconds*float64(time.Second))/100)
	if err != nil {
		return err
	}
	for k, v := range direct {
		vals[k] = v
	}

	r.Layers = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		r.Layers[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return nil
}

// oneCaller is what a one-caller run hands back; everything after
// failed is set only when the run was recorded.
type oneCaller struct {
	opsPerS           float64
	attempted, failed int
	firstErr          error
	pinned            bool
	summary           *traceSummary
	spans             []spanJSON
	costs             costs
	before, after     telemetry.Snapshot
	bodies            map[string]*bodySamples
}

// oneCallerRun builds the workload's fleet afresh, warms it with
// w.traceWarm ops and times w.traceOps ops from one caller with one op
// in flight. With record set the fleet carries a telemetry registry and
// the span-recording transport wrapper.
func oneCallerRun(ctx context.Context, in *inputs, opt runOptions, record bool) (*oneCaller, error) {
	w := in.w
	fopt := fleetOptions{tmpRoot: opt.tmpRoot()}
	var tr *tracer
	if record {
		fopt.reg = telemetry.New(0)
		fopt.wrap = func(n transport.Network) transport.Network {
			tr = newTracer(n, w.tcp)
			return tr
		}
	}
	f, _, err := buildFleet(ctx, in, fopt)
	if err != nil {
		return nil, fmt.Errorf("%s: one-caller set-up: %w", w.name, err)
	}
	defer f.close()

	c := newCaller(0, in, f)
	c.run(ctx, &never, w.traceWarm)
	out := &oneCaller{attempted: len(c.lat) + c.failed, failed: c.failed, pinned: f.pinned}
	c.startMeasured()
	if record {
		c.onOp = tr.opSpan
		out.before = fopt.reg.Snapshot()
		tr.start()
	}
	start := time.Now()
	c.run(ctx, &never, w.traceOps)
	elapsed := time.Since(start)
	out.attempted += len(c.lat) + c.failed
	out.failed += c.failed
	out.firstErr = c.firstErr
	out.opsPerS = float64(len(c.lat)) / elapsed.Seconds()
	if !record {
		return out, nil
	}
	tr.stop()
	out.after = fopt.reg.Snapshot()
	out.costs = c.total
	out.bodies = tr.bodies
	recorded := tr.trace()
	out.summary = recorded.summarize(w.traceOps)
	out.summary.Workload, out.summary.Seed = w.name, opt.seed
	out.summary.TracedOpsPerS = out.opsPerS
	out.spans = recorded.firstOps(tracedSpanOps)
	return out, nil
}

// rankAnswers builds the inputs of the rank timing: the oracle answers
// of the most popular templates as unsorted matches, which is what the
// root merges before it ranks.
func rankAnswers(in *inputs) [][]keysearch.Match {
	var out [][]keysearch.Match
	for i := range in.templates {
		if len(out) == maxRankAnswers {
			break
		}
		t := &in.templates[i]
		ms := make([]keysearch.Match, 0, t.want.size())
		for id := range t.want.ids {
			r := in.byID[id]
			ms = append(ms, keysearch.Match{ObjectID: id, SetKey: r.set.Key(), Depth: r.set.Len() - t.set.Len()})
		}
		out = append(out, ms)
	}
	return out
}

// tracedSpanOps is how many ops' raw spans the trace file keeps; the
// summary covers every traced op.
const tracedSpanOps = 50

// writeTrace writes trace_<workload>.json (summary and the first ops'
// spans) and trace_<workload>_summary.json (summary alone).
func writeTrace(dir string, sum *traceSummary, spans []spanJSON) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full := struct {
		*traceSummary
		Spans []spanJSON `json:"spans"`
	}{sum, spans}
	if err := writeJSON(filepath.Join(dir, "trace_"+sum.Workload+".json"), full); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "trace_"+sum.Workload+"_summary.json"), sum)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
