package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict classifies b against a. worse is the relative change in the
// bad direction. A metric whose windows spread wider than the bound on
// either side cannot carry a "same": it is unresolved unless every
// window of one side beats every window of the other.
func verdict(a, b metricValue, lowerIsBetter bool, bound float64) (string, float64) {
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	worse := sign * (b.Value - a.Value) / a.Value
	wide := spread(a.Windows) > bound || spread(b.Windows) > bound
	if wide {
		switch {
		case separated(a.Windows, b.Windows, sign):
			return "better", worse
		case worse > bound && separated(b.Windows, a.Windows, sign):
			return "worse", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "same", worse
}

// separated reports whether every value of lose is worse than every
// value of win (sign +1: larger is worse).
func separated(lose, win []float64, sign float64) bool {
	if len(lose) == 0 || len(win) == 0 {
		return false
	}
	for _, l := range lose {
		for _, w := range win {
			if sign*(l-w) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files under the spec's bounds and returns exit code 1 when any
// row is worse.
func compareFiles(out io.Writer, specPath, aPath, bPath string) (int, error) {
	var spec benchSpec
	var a, b runFile
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return 2, err
		}
	}
	byName := make(map[string]*result)
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(out, "a: %s (%s, seed %d)\nb: %s (%s, seed %d)\n", aPath, a.Commit, a.Seed, bPath, b.Commit, b.Seed)
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	counts := map[string]int{}
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v, change := verdict(va, vb, m.Better == "lower", m.Bound)
			if !ra.LayoutPinned || !rb.LayoutPinned {
				v = "unresolved" // a run on another ring layout measures another workload
			}
			counts[v]++
			fmt.Fprintf(out, "%-16s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				ra.Workload, m.Name, va.Value, vb.Value, 100*change, 100*m.Bound, v)
		}
		// fail_frac has an absolute bound of 0.
		v := "same"
		if rb.FailFrac > ra.FailFrac {
			v = "worse"
		}
		counts[v]++
		fmt.Fprintf(out, "%-16s %-16s %14.6f %14.6f %9s %7s  %s\n", ra.Workload, failFrac, ra.FailFrac, rb.FailFrac, "", "0 abs", v)
	}
	fmt.Fprintf(out, "better %d, same %d, worse %d, unresolved %d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1, nil
	}
	return 0, nil
}
