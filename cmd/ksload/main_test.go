package main

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/leakcheck"
	"github.com/p2pkeyword/keysearch/internal/load"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestRunTCPSmoke drives the whole command once per transport at toy
// scale: flag parsing, fleet build, one open-loop phase, and a BENCH
// file that internal/load reads back.
func TestRunTCPSmoke(t *testing.T) {
	for _, transport := range []string{"inmem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			out := t.TempDir()
			err := run([]string{
				"-transport", transport, "-peers", "3", "-r", "6",
				"-objects", "200", "-queries", "200", "-templates", "20",
				"-rate", "200", "-duration", "300ms",
				"-tag", "smoke", "-out", out,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			b, err := load.ReadBench(filepath.Join(out, "BENCH_smoke.json"))
			if err != nil {
				t.Fatal(err)
			}
			if b.Workload.Transport != transport || b.Workload.Peers != 3 {
				t.Errorf("workload = %+v, want %s with 3 peers", b.Workload, transport)
			}
			if len(b.Runs) != 1 || b.Runs[0].Name != "single" {
				t.Fatalf("runs = %+v, want one run named single", b.Runs)
			}
			if rep := b.Runs[0].Report; rep.Offered == 0 || rep.OK == 0 {
				t.Errorf("report offered %d, ok %d: the phase answered nothing", rep.Offered, rep.OK)
			}
		})
	}
}

// TestWireFlagIsGone: there is one wire protocol and no flag to pick
// another.
func TestWireFlagIsGone(t *testing.T) {
	err := run([]string{"-wire", "gob"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("run(-wire gob) = %v, want an unknown-flag error", err)
	}
}

// TestListenWorkersFlagIsGone: a TCP peer sizes its listener pool from
// GOMAXPROCS, so the pool size is not a flag.
func TestListenWorkersFlagIsGone(t *testing.T) {
	err := run([]string{"-listen-workers", "4"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("run(-listen-workers 4) = %v, want an unknown-flag error", err)
	}
}

// TestTuningFlagsAreGone: ksload drives a cache-off fleet open-loop and
// has no Zipf study, so none of these is a flag.
func TestTuningFlagsAreGone(t *testing.T) {
	for _, name := range []string{
		"-zipf-study", "-cache", "-cache-policy", "-cache-target-hit",
		"-hot-replicas", "-hot-threshold", "-hot-spread",
	} {
		err := run([]string{name, "4"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%s 4) = %v, want an unknown-flag error", name, err)
		}
	}
}
