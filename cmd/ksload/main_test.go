package main

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/load"
)

// TestRunTCPSmoke drives the whole command once over loopback sockets
// at toy scale: flag parsing, fleet build, one open-loop phase, and a
// BENCH file that internal/load reads back.
func TestRunTCPSmoke(t *testing.T) {
	out := t.TempDir()
	err := run([]string{
		"-transport", "tcp", "-peers", "3", "-r", "6",
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
	if b.Workload.Transport != "tcp" || b.Workload.Peers != 3 {
		t.Errorf("workload = %+v, want tcp with 3 peers", b.Workload)
	}
	if len(b.Runs) != 1 || b.Runs[0].Name != "single" {
		t.Fatalf("runs = %+v, want one run named single", b.Runs)
	}
	if rep := b.Runs[0].Report; rep.Offered == 0 || rep.OK == 0 {
		t.Errorf("report offered %d, ok %d: the phase answered nothing", rep.Offered, rep.OK)
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
