package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// TestCompactionFailureIsCountedAndRetried: a compaction whose snapshot
// write fails must not be silent. While it fails the WAL keeps every
// record (and keeps growing), core_snapshot_failures_total and
// Stats().SnapshotFailures move together and the cause is kept; once
// the fault clears the next append compacts, and a restart reproduces
// the state either way.
func TestCompactionFailureIsCountedAndRetried(t *testing.T) {
	const snapEvery = 8
	dirs := tempDirs(t, 1)
	reg := telemetry.New(8)
	d := newDurableDeployment(t, 6, 1, 0, dirs, store.FsyncOff, snapEvery, reg)
	srv := d.servers[0]
	ctx := context.Background()

	// The store writes its snapshot through this temp file; a directory
	// of that name makes every attempt fail (chmod would not: tests may
	// run as root).
	block := filepath.Join(dirs[0], "snapshot.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dirs[0], "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	objects := batchCorpus(53, 3*snapEvery)
	failures := reg.Counter("core_snapshot_failures_total")
	var lastFailures uint64
	var lastWAL int64
	for i, o := range objects[:2*snapEvery] {
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatalf("insert %d with compaction failing: %v", i, err)
		}
		if i+1 < snapEvery {
			continue
		}
		// At and past the threshold every append retries the compaction,
		// fails again, and leaves the (flushed) log one record longer.
		if got := failures.Value(); got <= lastFailures {
			t.Fatalf("after insert %d: core_snapshot_failures_total = %d, want > %d", i, got, lastFailures)
		} else {
			lastFailures = got
		}
		if got := walSize(); got <= lastWAL {
			t.Fatalf("after insert %d: WAL is %d bytes, want > %d (it must keep growing)", i, got, lastWAL)
		} else {
			lastWAL = got
		}
	}
	st := srv.Stats()
	if st.SnapshotFailures != lastFailures {
		t.Errorf("Stats().SnapshotFailures = %d, counter = %d", st.SnapshotFailures, lastFailures)
	}
	if !strings.Contains(st.LastSnapshotError, "snapshot tmp") {
		t.Errorf("Stats().LastSnapshotError = %q, want the store's cause", st.LastSnapshotError)
	}
	if got := reg.Counter("store_snapshots_total").Value(); got != 0 {
		t.Fatalf("store_snapshots_total = %d while the snapshot path is blocked", got)
	}

	// Fault cleared: the very next append compacts.
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Insert(ctx, objects[2*snapEvery]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store_snapshots_total").Value(); got != 1 {
		t.Fatalf("store_snapshots_total = %d after the fault cleared, want 1", got)
	}
	if got := failures.Value(); got != lastFailures {
		t.Errorf("core_snapshot_failures_total moved %d -> %d on a successful compaction", lastFailures, got)
	}
	if got := walSize(); got >= lastWAL {
		t.Errorf("WAL is %d bytes after compaction, was %d before", got, lastWAL)
	}

	want := srv.Stats()
	d.closeServers(t)
	d2 := newDurableDeployment(t, 6, 1, 0, dirs, store.FsyncOff, snapEvery, nil)
	got := d2.servers[0].Stats()
	if got.Vertices != want.Vertices || got.Entries != want.Entries || got.Objects != want.Objects {
		t.Fatalf("restart after failed compactions: stats %+v, want %+v", got, want)
	}
}
