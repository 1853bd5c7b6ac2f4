package main

import (
	"os"
	"strings"
	"testing"
)

func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

func TestRunFig5Small(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "5", "-objects", "2000"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "mean") {
		t.Errorf("missing figure 5 table:\n%s", out)
	}
}

func TestRunFig6Small(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "6", "-objects", "3000"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Figure 6", "hypercube-10", "DII-12", "DHT-8", "Gini"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 6 output missing %q", want)
		}
	}
}

func TestRunFig7Small(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "7", "-objects", "3000"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 7 (r=10)") || !strings.Contains(out, "analytic dimension choice") {
		t.Errorf("figure 7 output incomplete")
	}
}

func TestRunEq1(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "eq1", "-objects", "100"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Equation (1)") {
		t.Error("missing Eq 1 table")
	}
}

func TestRunCostsSmall(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "costs", "-objects", "300"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Section 3.5", "insert", "pin-search", "delete"} {
		if !strings.Contains(out, want) {
			t.Errorf("costs output missing %q", want)
		}
	}
}

func TestRunFig8Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment-heavy")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "8", "-objects", "3000", "-queries", "500",
			"-templates", "100", "-fig8-r", "8", "-fig8-queries", "2"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 8") {
		t.Error("missing figure 8 table")
	}
}

func TestRunFig9Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment-heavy")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "9", "-objects", "3000", "-queries", "2000",
			"-templates", "50", "-fig9-r", "8", "-fig9-max", "2000"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "hit rate") {
		t.Error("missing figure 9 table")
	}
}

func TestParseInts(t *testing.T) {
	got := parseInts("8, 10,12,,x")
	if len(got) != 3 || got[0] != 8 || got[1] != 10 || got[2] != 12 {
		t.Errorf("parseInts = %v", got)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestTuningFlagsAreGone: each simulated server takes its lock stripes
// from GOMAXPROCS, scans a frame on the goroutine that received it and
// batches its waves (only the batch study turns batching off), so none
// of them is a flag.
func TestTuningFlagsAreGone(t *testing.T) {
	for _, name := range []string{"-shards", "-scan-parallelism", "-batch-waves"} {
		err := run([]string{name, "4"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%s 4) = %v, want an unknown-flag error", name, err)
		}
	}
}
