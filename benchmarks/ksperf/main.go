// Command ksperf is the repository's benchmark: it builds a fleet
// through the public API, drives four pinned workloads in a closed loop
// from two callers, checks every answer against a brute-force oracle,
// and reports eight end-to-end metrics per workload plus per-layer
// numbers taken from outside the program (a span-recording transport
// wrapper, the modules' telemetry counters, and direct timings of their
// public functions). See ../README.md.
//
//	ksperf                                   # all workloads, both passes
//	ksperf -workload hot_tcp -seed 2         # one workload
//	ksperf -compare a.json b.json            # apply BENCHMARK.json's bounds
//	ksperf --workload W --seed N --seconds S --trace 0|1   # the driver's form
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksperf:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// runFile is the result JSON: the environment and one entry per
// workload.
type runFile struct {
	Schema     string    `json:"schema"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Callers    int       `json:"callers"`
	Load       string    `json:"load"`
	Network    string    `json:"network"`
	Started    time.Time `json:"started"`
	Workloads  []*result `json:"workloads"`
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("ksperf", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "derives the corpus, the query log and the op interleaving")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload: three windows of a third each")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (adds the traced run); default both")
	out := fs.String("out", filepath.Join("benchmarks", "out"), "directory for the result JSON, trace files and durable peers' data")
	compare := fs.Bool("compare", false, "compare two result files given as arguments under the bounds in ./BENCHMARK.json; exit non-zero on a regression")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return 2, err
		}
		selected = []workload{*w}
	}
	opt := runOptions{seed: *seed, seconds: *seconds, measure: *trace != 1, trace: *trace != 0, outDir: *out}
	file := &runFile{
		Schema: "ksperf/1", Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Callers: callers,
		Load:    "closed loop, fleet and callers in one process",
		Network: "inmem workloads never leave the process; tcp workloads cross the host's loopback interface, not a real link",
		Started: time.Now().UTC(),
	}
	fmt.Printf("ksperf %s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g callers=%d\n",
		file.Commit, file.GoVersion, file.NumCPU, file.GoMaxProcs, *seed, *seconds, callers)

	ctx := context.Background()
	failed := false
	for i := range selected {
		res, err := runWorkload(ctx, &selected[i], opt)
		if err != nil {
			return 1, err
		}
		printResult(res)
		file.Workloads = append(file.Workloads, res)
		failed = failed || res.Failed > 0
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	tag := fmt.Sprintf("ksperf_%s_seed%d", file.Commit, *seed)
	if *name != "" {
		tag += "_" + *name
	}
	path := filepath.Join(*out, tag+".json")
	if err := writeJSON(path, file); err != nil {
		return 1, err
	}
	fmt.Println("wrote", path)
	_ = os.Remove(opt.tmpRoot()) // only if empty: every user removed its own directory

	if len(file.Workloads) == 1 {
		if err := printContractLine(file.Workloads[0]); err != nil {
			return 1, err
		}
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// commit is the VCS revision the binary was built from, as the Go
// toolchain stamped it; "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

func printResult(r *result) {
	fmt.Printf("\n== %s (seed %d, inputs %s) ==\n   %s\n", r.Workload, r.Seed, r.InputHash, r.Why)
	fmt.Printf("   attempted %d, failed %d", r.Attempted, r.Failed)
	if r.FirstErr != "" {
		fmt.Printf(" — first: %s", r.FirstErr)
	}
	if r.Noisy {
		fmt.Printf("   NOISY: first windows disturbed, re-measured")
	}
	if !r.LayoutPinned {
		fmt.Printf("   LAYOUT NOT PINNED: a pinned port was taken, not comparable with other runs")
	}
	fmt.Println()
	row := func(name string, m metricValue) {
		fmt.Printf("   %-34s %14.4f %-7s", name, m.Value, m.Unit)
		if len(m.Windows) > 0 {
			parts := make([]string, len(m.Windows))
			for i, v := range m.Windows {
				parts[i] = fmt.Sprintf("%.4g", v)
			}
			fmt.Printf(" [%s]", strings.Join(parts, " "))
		}
		fmt.Println()
	}
	if r.EndToEnd != nil {
		for _, m := range endToEnd {
			row(m.name, r.EndToEnd[m.name])
		}
		row(failFrac, metricValue{Value: r.FailFrac, Unit: "fraction"})
	}
	if n := len(r.Windows); n > 0 {
		last := r.Windows[n-1].Kinds
		names := make([]string, 0, len(last))
		for name := range last {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return last[names[i]].P50us < last[names[j]].P50us })
		fmt.Printf("   op kinds, cheapest first (share of ops, own p50):")
		for _, name := range names {
			fmt.Printf(" %s %.0f%% %.0fus;", name, 100*last[name].Share, last[name].P50us)
		}
		fmt.Println()
	}
	if r.Layers != nil {
		for _, m := range perLayer {
			row(m.name, r.Layers[m.name])
		}
	}
	if t := r.Trace; t != nil {
		fmt.Printf("   traced %d ops, %.1f us/op; blocking path by layer:", t.Ops, t.OpUsMean)
		names := make([]string, 0, len(t.Layers))
		for n := range t.Layers {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return t.Layers[names[i]].PathUsPerOp > t.Layers[names[j]].PathUsPerOp })
		for _, n := range names {
			fmt.Printf(" %s %.0f%%", n, 100*t.Layers[n].PathUsPerOp/t.OpUsMean)
		}
		fmt.Println()
	}
}

// printContractLine prints the one-object summary the benchmark driver
// reads from the last line of standard output.
func printContractLine(r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, set := range []map[string]metricValue{r.EndToEnd, r.Layers} {
		for name, m := range set {
			metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
