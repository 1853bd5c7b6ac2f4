// Package store is the per-peer durability layer of the keysearch
// stack: an append-only write-ahead log of index mutations plus a
// periodic snapshot that truncates the log.
//
// The contract with the index server is append-before-apply: every
// table mutation appends its WAL record (sequenced by the store's
// internal ordered writer) before touching the sharded tables, so the
// log is always a superset of the applied state. Records are
// idempotent and replay converges (the last record touching an entry
// decides its presence), which makes recovery simple: load the
// snapshot, then replay the entire surviving WAL in order — even when
// a crash interrupted compaction between the snapshot rename and the
// log truncation.
//
// Appends are buffered in process memory and flushed to the OS
// according to the fsync policy: FsyncAlways flushes and fsyncs every
// append (power-loss durable), FsyncInterval group-commits on a
// background tick (bounded loss on power failure, no loss on process
// crash once flushed), FsyncOff flushes only on snapshot/close.
// Recover always flushes the buffer first, so in-process recovery
// (the chaos harness's crash→recover transition) observes every
// append regardless of policy.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) group-commits: a background ticker
	// flushes and fsyncs the log every Config.FsyncInterval.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways flushes and fsyncs after every append.
	FsyncAlways
	// FsyncOff never fsyncs; the log reaches the OS only at snapshot,
	// recover and close boundaries (process-crash durable from the
	// moment of the flush, never power-loss durable).
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return "unknown"
	}
}

// ParseFsyncPolicy maps the CLI/config spelling to a policy. The empty
// string selects the default (interval).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or off)", s)
	}
}

// Config parameterizes Open.
type Config struct {
	// Dir is the data directory (created if absent). One store owns the
	// directory exclusively; Open enforces this with an advisory lock
	// on the WAL file and fails fast on a second opener.
	Dir string
	// Fsync is the WAL fsync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the group-commit period for FsyncInterval
	// (default 100ms).
	FsyncEvery time.Duration
	// SnapshotEvery is the number of WAL appends between snapshot
	// compactions (default 16384; negative disables compaction).
	SnapshotEvery int
	// Telemetry receives the store_* instruments; nil disables them at
	// zero cost.
	Telemetry *telemetry.Registry
}

const (
	walName      = "wal.log"
	snapName     = "snapshot.snap"
	snapTmpName  = "snapshot.tmp"
	defaultEvery = 16384
	// maxBufferedBytes caps the in-process append buffer for the
	// non-always policies: past this the buffer is written to the OS
	// inline rather than waiting for the group-commit tick.
	maxBufferedBytes = 256 << 10
)

// Store is one peer's durability state: the open WAL plus the current
// snapshot. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu        sync.Mutex // the ordered writer: sequences appends and snapshots
	wal       *os.File
	buf       []byte // pending appends not yet written to the OS
	dirty     bool   // bytes written to the OS since the last fsync
	appends   int    // appends since the last snapshot
	closed    bool
	stopFlush chan struct{}
	flushDone chan struct{}
	// syncFailures counts group-commit ticks whose flush or fsync
	// failed; lastSyncErr is the latest cause.
	syncFailures uint64
	lastSyncErr  string

	met storeMetrics
}

type storeMetrics struct {
	walAppends *telemetry.Counter   // store_wal_appends_total
	walBytes   *telemetry.Counter   // store_wal_bytes_total
	fsyncNS    *telemetry.Histogram // store_fsync_ns
	snapshotNS *telemetry.Histogram // store_snapshot_ns
	replayed   *telemetry.Counter   // store_recovery_replayed_total
	snapshots  *telemetry.Counter   // store_snapshots_total
	syncFails  *telemetry.Counter   // store_group_commit_failures_total
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	return storeMetrics{
		walAppends: reg.Counter("store_wal_appends_total"),
		walBytes:   reg.Counter("store_wal_bytes_total"),
		// fsync sits between a page-cache flush (~µs) and a disk barrier
		// (~ms); snapshot covers full-table dumps. Powers of 4 from 1µs.
		fsyncNS:    reg.Histogram("store_fsync_ns", telemetry.ExpBuckets(int64(time.Microsecond), 4, 10)),
		snapshotNS: reg.Histogram("store_snapshot_ns", telemetry.ExpBuckets(int64(100*time.Microsecond), 4, 10)),
		replayed:   reg.Counter("store_recovery_replayed_total"),
		snapshots:  reg.Counter("store_snapshots_total"),
		syncFails:  reg.Counter("store_group_commit_failures_total"),
	}
}

// Open creates or reopens the store rooted at cfg.Dir. A reopened
// store scans the WAL for a torn tail (a crash mid-append) and
// truncates it, so subsequent appends never follow garbage; a corrupt
// frame anywhere before the tail fails Open instead of silently
// recovering partial state. The WAL file carries an advisory lock for
// the store's lifetime, so a second opener of the same directory — a
// concurrent process or a second Server in this one — fails fast
// instead of interleaving appends into the same log. The lock dies
// with the process (flock semantics), so a SIGKILLed node restarts
// without stale-lockfile cleanup.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = 100 * time.Millisecond
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = defaultEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	walPath := filepath.Join(cfg.Dir, walName)
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	if err := lockFile(wal); err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: data dir %s is locked by another store: %w", cfg.Dir, err)
	}
	// Scan the surviving log: truncate a torn tail before positioning
	// the writer at the end, and count the tail's records so the
	// compaction threshold keeps accounting for appends across restarts
	// (otherwise a node that restarts faster than it fills SnapshotEvery
	// fresh appends never compacts and the WAL grows without bound).
	tailRecords := 0
	if data, err := os.ReadFile(walPath); err == nil {
		n, validLen, rerr := readAll(data, func(Record) error { return nil })
		if rerr != nil {
			wal.Close()
			return nil, fmt.Errorf("store: WAL %s: %w", walPath, rerr)
		}
		if validLen < len(data) {
			if err := os.Truncate(walPath, int64(validLen)); err != nil {
				wal.Close()
				return nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
			}
		}
		tailRecords = n
	}
	s := &Store{
		cfg:     cfg,
		wal:     wal,
		appends: tailRecords,
		met:     newStoreMetrics(cfg.Telemetry),
	}
	if cfg.Fsync == FsyncInterval {
		s.stopFlush = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	return s, nil
}

// Append logs one mutation. The record is durable against process
// crash once this returns under any policy that flushes (always), or
// after the next group-commit tick / recover / close otherwise. It
// returns true when enough appends have accumulated that the owner
// should run a snapshot compaction (see WriteSnapshot).
func (s *Store) Append(rec Record) (snapshotDue bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, fmt.Errorf("store: append on closed store")
	}
	start := len(s.buf)
	s.buf = appendRecord(s.buf, rec)
	frameLen := len(s.buf) - start
	s.appends++
	s.met.walAppends.Inc()
	s.met.walBytes.Add(uint64(frameLen))
	// FsyncAlways reaches stable storage per append; the other policies
	// still bound the in-process buffer so a burst between ticks cannot
	// grow it without limit.
	if s.cfg.Fsync == FsyncAlways {
		if err := s.flushLocked(); err != nil {
			return false, err
		}
		if err := s.syncLocked(); err != nil {
			return false, err
		}
	} else if len(s.buf) >= maxBufferedBytes {
		if err := s.flushLocked(); err != nil {
			return false, err
		}
	}
	return s.cfg.SnapshotEvery > 0 && s.appends >= s.cfg.SnapshotEvery, nil
}

// SnapshotDue reports whether the append count since the last snapshot
// has reached the compaction threshold.
func (s *Store) SnapshotDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.SnapshotEvery > 0 && s.appends >= s.cfg.SnapshotEvery
}

// flushLocked moves the append buffer to the OS. Callers hold s.mu.
func (s *Store) flushLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	if _, err := s.wal.Write(s.buf); err != nil {
		return fmt.Errorf("store: WAL write: %w", err)
	}
	s.buf = s.buf[:0]
	s.dirty = true
	return nil
}

// syncLocked fsyncs the WAL if it has unsynced bytes. Callers hold s.mu.
func (s *Store) syncLocked() error {
	if !s.dirty {
		return nil
	}
	start := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: WAL fsync: %w", err)
	}
	s.met.fsyncNS.Observe(time.Since(start).Nanoseconds())
	s.dirty = false
	return nil
}

// flushLoop is the FsyncInterval group-commit ticker. No caller waits
// on a tick, so a failed flush or fsync is counted (SyncFailures) and
// the next tick retries: the unwritten bytes stay buffered.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				err := s.flushLocked()
				if err == nil {
					err = s.syncLocked()
				}
				if err != nil {
					s.syncFailures++
					s.lastSyncErr = err.Error()
					s.met.syncFails.Inc()
				}
			}
			s.mu.Unlock()
		case <-s.stopFlush:
			return
		}
	}
}

// SyncFailures reports how many group-commit ticks failed to flush or
// fsync the WAL, and the latest cause ("" when none failed).
func (s *Store) SyncFailures() (count uint64, last string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncFailures, s.lastSyncErr
}

// Sync forces pending appends to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

// Recover replays the durable state into apply: first every snapshot
// record, then every surviving WAL record, in order. It flushes the
// append buffer first so in-process recovery sees all prior appends.
// A torn WAL tail is skipped (the surviving prefix is the recovered
// state); a corrupt frame anywhere else — including any malformed
// snapshot frame, since the snapshot was fsynced whole before its
// rename and admits no torn tail — is an error, never a silent
// partial recovery. The replayed count is returned and added to
// store_recovery_replayed_total.
func (s *Store) Recover(apply func(Record) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return 0, err
	}
	total := 0
	if data, err := os.ReadFile(filepath.Join(s.cfg.Dir, snapName)); err == nil {
		n, validLen, aerr := readAll(data, apply)
		total += n
		if aerr != nil {
			return total, fmt.Errorf("store: snapshot replay: %w", aerr)
		}
		if validLen < len(data) {
			return total, fmt.Errorf("store: snapshot truncated at offset %d of %d", validLen, len(data))
		}
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("store: read snapshot: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, walName))
	if err != nil && !os.IsNotExist(err) {
		return total, fmt.Errorf("store: read WAL: %w", err)
	}
	n, _, aerr := readAll(data, apply)
	total += n
	if aerr != nil {
		return total, fmt.Errorf("store: WAL replay: %w", aerr)
	}
	s.met.replayed.Add(uint64(total))
	return total, nil
}

// WriteSnapshot dumps the owner's full table state (dump must emit one
// OpInsert record per live entry) into a fresh snapshot and truncates
// the WAL. The owner must guarantee no Append runs concurrently and
// that the dump reflects every record appended so far — the index
// server holds its state fence exclusively across this call.
//
// Crash windows are all safe: the snapshot lands via tmp-file rename,
// and if the crash hits after the rename but before the truncation,
// recovery replays the stale WAL on top of the new snapshot — a no-op
// by record idempotency.
func (s *Store) WriteSnapshot(dump func(emit func(Record) error) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot on closed store")
	}
	start := time.Now()
	if err := s.flushLocked(); err != nil {
		return err
	}

	tmpPath := filepath.Join(s.cfg.Dir, snapTmpName)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: snapshot tmp: %w", err)
	}
	fw := &frameWriter{w: tmp}
	dumpErr := dump(fw.emit)
	if dumpErr == nil {
		dumpErr = fw.err
	}
	if dumpErr != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: snapshot dump: %w", dumpErr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.cfg.Dir, snapName)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		return err
	}

	// The snapshot now covers every appended record; drop the log.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: WAL truncate: %w", err)
	}
	s.dirty = true
	if err := s.syncLocked(); err != nil {
		return err
	}
	s.appends = 0
	s.met.snapshots.Inc()
	s.met.snapshotNS.Observe(time.Since(start).Nanoseconds())
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: dir sync: %w", err)
	}
	return nil
}

// Close flushes and fsyncs pending appends, stops the group-commit
// loop, and closes the WAL. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	flushErr := s.flushLocked()
	if flushErr == nil {
		flushErr = s.syncLocked()
	}
	closeErr := s.wal.Close()
	stop := s.stopFlush
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.flushDone
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.cfg.Dir }
