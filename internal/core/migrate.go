package core

// Live-churn migration: when ring ownership changes (join, leave,
// stabilization repair), the index entries of the re-homed range move
// from the old owner to the new one through a chunked, cursor-paged,
// crash-safe pull protocol with a double-read correctness window — the
// one way a range moves; a graceful leave is its successor's pull
// (Depart):
//
//	enqueue ─▶ pull chunks (resumable cursor, WAL-checkpointed)
//	        ─▶ commit (old owner drops the range) ─▶ window closes
//
// Until commit the old owner keeps serving the range, and every read
// the new owner serves for an in-flight vertex merges its local table
// with the old owner's (relayed, ownership-check-free) answer — so pin
// and superset results are byte-identical to a static fleet throughout
// the transfer. Deletes during the window leave tombstones so a chunk
// arriving later cannot resurrect them; inserts clear matching
// tombstones. Each applied chunk is followed by an OpMigrate WAL
// checkpoint, so a crash mid-transfer resumes from the durable cursor
// (re-pulling at most one chunk — inserts are idempotent) instead of
// restarting or losing entries. See DESIGN §11.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/store"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// Migration protocol defaults.
const (
	defaultChunkEntries = 512
	defaultChunkBytes   = 256 << 10
	defaultChunkTimeout = 5 * time.Second
	defaultMaxAttempts  = 8
	defaultRetryBackoff = 50 * time.Millisecond
	maxRetryBackoff     = 2 * time.Second
)

// MigrationConfig tunes the background migration manager. The zero
// value selects the defaults above.
type MigrationConfig struct {
	// ChunkEntries caps the entries per pulled chunk.
	ChunkEntries int
	// Throttle pauses between chunks, bounding the transfer's bandwidth
	// and lock footprint (0 = pull back to back).
	Throttle time.Duration
	// ChunkTimeout is the per-chunk (and per-commit) RPC deadline; the
	// source's handler runs under it.
	ChunkTimeout time.Duration
	// MaxAttempts bounds retries per chunk/commit before the migration
	// aborts (the source is presumed gone).
	MaxAttempts int
	// RetryBackoff is the base inter-attempt backoff, doubled per
	// attempt up to 2s.
	RetryBackoff time.Duration
}

func (c MigrationConfig) withDefaults() MigrationConfig {
	if c.ChunkEntries <= 0 {
		c.ChunkEntries = defaultChunkEntries
	}
	if c.ChunkTimeout <= 0 {
		c.ChunkTimeout = defaultChunkTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = defaultMaxAttempts
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	return c
}

// MigrationStats summarizes the manager's lifetime counters (also
// exported as migrate_* telemetry when a registry is configured).
type MigrationStats struct {
	Active      int    // migrations currently pulling
	Recovered   int    // durable cursors recovered but not yet resumed
	Chunks      uint64 // chunks applied
	Entries     uint64 // entries applied
	Bytes       uint64 // approximate bytes transferred
	Resumes     uint64 // migrations resumed from a durable cursor
	DoubleReads uint64 // reads relayed to an old owner mid-window
	Commits     uint64 // migrations committed (old owner dropped range)
	Failures    uint64 // migrations aborted (source unreachable, etc.)
	LastAbort   string // source and cause of the latest abort; empty when none
	// FlushFailures counts tombstoned entries a closing window failed to
	// delete (a WAL append error); LastFlushError is the latest cause.
	FlushFailures  uint64
	LastFlushError string
	// CheckpointFailures counts OpMigrate checkpoints a durable puller
	// failed to append (the pull goes on; a crash then re-pulls more);
	// LastCheckpointError is the latest cause.
	CheckpointFailures  uint64
	LastCheckpointError string
	// RelayFailures counts double-reads the old owner did not answer
	// (unreachable, refused or malformed): the vertex was answered from
	// the local half alone. LastRelayError is the latest source and
	// cause.
	RelayFailures  uint64
	LastRelayError string
}

// migKey identifies one migration: the range bounds the puller asks
// with (keys NOT in (newID, ownerID] move) and the source address.
type migKey struct {
	newID   uint64
	ownerID uint64
	source  transport.Addr
}

// migration is one in-flight inbound transfer.
type migration struct {
	key     migKey
	cursor  wireCursor
	resumed bool
	done    chan struct{}
}

type migrateMetrics struct {
	chunks      *telemetry.Counter
	entries     *telemetry.Counter
	bytes       *telemetry.Counter
	resumes     *telemetry.Counter
	doubleReads *telemetry.Counter
	commits     *telemetry.Counter
}

// failureLog counts one kind of failure (a migration's, a soft
// replica's forward, an owner's invalidation of a replica, or a WAL
// compaction's snapshot): a total, its telemetry counter, and the
// latest cause.
type failureLog struct {
	c     *telemetry.Counter
	mu    sync.Mutex
	n     uint64
	cause string
}

// note counts one failure with its cause.
func (f *failureLog) note(cause string) {
	f.mu.Lock()
	f.n++
	f.cause = cause
	f.mu.Unlock()
	f.c.Inc()
}

// read returns the total and the latest cause, empty when none.
func (f *failureLog) read() (uint64, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n, f.cause
}

// migrationManager owns the server's inbound migrations: the worker
// per active transfer, the recovered-cursor set awaiting resume, and
// the window state (in-flight ranges + delete tombstones) the read and
// mutation paths consult.
type migrationManager struct {
	s   *Server
	cfg MigrationConfig
	met migrateMetrics

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	active    map[migKey]*migration
	recovered map[migKey]wireCursor
	closed    bool
	wg        sync.WaitGroup

	// The failures MigrationStats reports: aborted pulls, tombstone
	// deletes, checkpoint appends and relayed double-reads.
	aborts, flushFails, checkpointFails, relayFails failureLog

	// windowCount is |active| + |recovered|: the number of open
	// double-read windows. Hot read paths gate on this single atomic,
	// so a fleet with no churn pays one load per scan.
	windowCount atomic.Int32
	activeCount atomic.Int32

	// tombs records entries deleted while a window is open, so a chunk
	// (or relayed read) arriving later cannot resurrect them. Global
	// across windows: an over-approximate tombstone is harmless (the
	// entry is authoritatively deleted either way) and the set clears
	// when the last window closes. Lock order: tombMu is innermost —
	// taken under shard locks (noteWrite, writeEntry's check) and under
	// stateMu.W (dumpState).
	tombMu sync.RWMutex
	tombs  map[store.Entry]struct{}

	nChunks      atomic.Uint64
	nEntries     atomic.Uint64
	nBytes       atomic.Uint64
	nResumes     atomic.Uint64
	nDoubleReads atomic.Uint64
	nCommits     atomic.Uint64
}

func newMigrationManager(s *Server, cfg MigrationConfig, reg *telemetry.Registry) *migrationManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &migrationManager{
		s:         s,
		cfg:       cfg.withDefaults(),
		ctx:       ctx,
		cancel:    cancel,
		active:    make(map[migKey]*migration),
		recovered: make(map[migKey]wireCursor),
		tombs:     make(map[store.Entry]struct{}),
		met: migrateMetrics{
			chunks:      reg.Counter("migrate_chunks_total"),
			entries:     reg.Counter("migrate_entries_total"),
			bytes:       reg.Counter("migrate_bytes_total"),
			resumes:     reg.Counter("migrate_resumes_total"),
			doubleReads: reg.Counter("migrate_double_reads_total"),
			commits:     reg.Counter("migrate_commits_total"),
		},
	}
	m.aborts.c = reg.Counter("migrate_failures_total")
	m.flushFails.c = reg.Counter("migrate_tombstone_flush_failures_total")
	m.checkpointFails.c = reg.Counter("migrate_checkpoint_failures_total")
	m.relayFails.c = reg.Counter("migrate_relay_failures_total")
	if reg != nil {
		reg.GaugeFunc("migrate_active", func() int64 { return int64(m.activeCount.Load()) })
	}
	return m
}

// EnqueueMigration schedules a background pull of the index entries
// this node now owns — those whose vertex key is NOT in (newID,
// ownerID] — from source, the old owner, which keeps serving them
// until the migration commits. Duplicate enqueues for an in-flight
// range are no-ops, so join-time and stabilization-driven triggers may
// overlap freely. If a durable cursor for the range was recovered from
// the WAL, the pull resumes from it instead of restarting.
func (s *Server) EnqueueMigration(source transport.Addr, newID, ownerID uint64) {
	if s.migrate == nil || source == "" {
		return
	}
	s.migrate.enqueue(migKey{newID: newID, ownerID: ownerID, source: source})
}

// ResumeMigrations re-enqueues every migration whose durable cursor
// was recovered from the data directory — the crash-restart path.
// Call it once the transport is serving (the sources will be dialed).
func (s *Server) ResumeMigrations() int {
	if s.migrate == nil {
		return 0
	}
	return s.migrate.resumeRecovered()
}

// MigrationStats reports the manager's counters.
func (s *Server) MigrationStats() MigrationStats {
	m := s.migrate
	if m == nil {
		return MigrationStats{}
	}
	m.mu.Lock()
	active, recovered := len(m.active), len(m.recovered)
	m.mu.Unlock()
	st := MigrationStats{
		Active:      active,
		Recovered:   recovered,
		Chunks:      m.nChunks.Load(),
		Entries:     m.nEntries.Load(),
		Bytes:       m.nBytes.Load(),
		Resumes:     m.nResumes.Load(),
		DoubleReads: m.nDoubleReads.Load(),
		Commits:     m.nCommits.Load(),
	}
	st.Failures, st.LastAbort = m.aborts.read()
	st.FlushFailures, st.LastFlushError = m.flushFails.read()
	st.CheckpointFailures, st.LastCheckpointError = m.checkpointFails.read()
	st.RelayFailures, st.LastRelayError = m.relayFails.read()
	return st
}

// WaitMigrationsIdle blocks until no migration is actively pulling (or
// ctx expires). Recovered-but-unresumed cursors do not count: they
// only run after ResumeMigrations.
func (s *Server) WaitMigrationsIdle(ctx context.Context) error {
	if s.migrate == nil {
		return nil
	}
	for {
		s.migrate.mu.Lock()
		var w *migration
		for _, mig := range s.migrate.active {
			w = mig
			break
		}
		s.migrate.mu.Unlock()
		if w == nil {
			return nil
		}
		select {
		case <-w.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (m *migrationManager) enqueue(key migKey) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if _, dup := m.active[key]; dup {
		m.mu.Unlock()
		return
	}
	mig := &migration{key: key, done: make(chan struct{})}
	if cur, ok := m.recovered[key]; ok {
		mig.cursor = cur
		mig.resumed = true
		delete(m.recovered, key) // recovered → active: windowCount unchanged
	} else {
		m.windowCount.Add(1)
	}
	m.active[key] = mig
	m.activeCount.Add(1)
	m.wg.Add(1)
	m.mu.Unlock()

	if mig.resumed {
		m.nResumes.Add(1)
		m.met.resumes.Inc()
	}
	// Durable start (or resume) marker: replay re-opens the window
	// after a crash, which is what makes tombstones recoverable — an
	// OpDelete replayed after this record re-tombstones.
	m.logRecord(key, mig.cursor, false)
	go m.run(mig)
}

func (m *migrationManager) resumeRecovered() int {
	m.mu.Lock()
	keys := make([]migKey, 0, len(m.recovered))
	for k := range m.recovered {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	for _, k := range keys {
		m.enqueue(k)
	}
	return len(keys)
}

// run is one migration's worker: pull chunks from the durable cursor,
// apply them through the WAL, checkpoint, commit, retire.
func (m *migrationManager) run(mig *migration) {
	defer m.wg.Done()
	defer close(mig.done)
	defer m.remove(mig)
	cursor := mig.cursor
	for {
		resp, err := m.pullChunk(mig.key, cursor)
		if err != nil {
			m.abort(mig, err)
			return
		}
		for _, e := range resp.Entries {
			if _, err := m.s.writeEntry(store.OpInsert, e, true); err != nil {
				m.abort(mig, err)
				return
			}
		}
		if len(resp.Entries) > 0 {
			cursor = wireCursor{Started: true, Entry: resp.Entries[len(resp.Entries)-1]}
			m.mu.Lock()
			mig.cursor = cursor // snapshot dumps read it under mu
			m.mu.Unlock()
			m.nChunks.Add(1)
			m.met.chunks.Inc()
			m.nEntries.Add(uint64(len(resp.Entries)))
			m.met.entries.Add(uint64(len(resp.Entries)))
			b := chunkBytes(resp.Entries)
			m.nBytes.Add(b)
			m.met.bytes.Add(b)
			// Durable checkpoint AFTER the chunk's OpInserts: a crash
			// between apply and checkpoint re-pulls one chunk, and the
			// idempotent inserts make the overlap harmless.
			m.logRecord(mig.key, cursor, false)
		}
		if resp.Done {
			break
		}
		if m.cfg.Throttle > 0 {
			select {
			case <-m.ctx.Done():
				return // shutdown: cursor stays un-done, restart resumes
			case <-time.After(m.cfg.Throttle):
			}
		} else if m.ctx.Err() != nil {
			return
		}
	}
	if err := m.commit(mig.key); err != nil {
		m.abort(mig, err)
		return
	}
	m.nCommits.Add(1)
	m.met.commits.Inc()
	// Retire the durable cursor: a restart must not re-pull a range
	// the source has already dropped.
	m.logRecord(mig.key, wireCursor{}, true)
}

// abort retires a migration that cannot make progress (source
// unreachable past MaxAttempts, a WAL append failure). Entries already
// applied stay — they are valid copies — and the durable cursor is
// marked done so a restart does not spin against a dead source.
// Shutdown is not an abort: the cursor stays resumable.
func (m *migrationManager) abort(mig *migration, err error) {
	if m.ctx.Err() != nil {
		return
	}
	m.aborts.note(fmt.Sprintf("pull from %s: %v", mig.key.source, err))
	m.logRecord(mig.key, wireCursor{}, true)
}

// remove closes the migration's window: flush tombstones (a chunk that
// raced a delete may have left the entry present-but-tombstoned; once
// the window count drops the read paths stop filtering, so the entry
// must be physically deleted first), then drop the window.
func (m *migrationManager) remove(mig *migration) {
	m.flushTombstones()
	m.mu.Lock()
	delete(m.active, mig.key)
	m.activeCount.Add(-1)
	last := m.windowCount.Add(-1) == 0
	m.mu.Unlock()
	if last {
		m.tombMu.Lock()
		m.tombs = make(map[store.Entry]struct{})
		m.tombMu.Unlock()
	}
}

// flushTombstones physically deletes every tombstoned entry (no-ops
// for the common case where the local delete already applied). A
// delete that fails — its WAL append did — is counted with its cause:
// the tombstone set clears regardless once the last window closes.
func (m *migrationManager) flushTombstones() {
	m.tombMu.RLock()
	list := make([]store.Entry, 0, len(m.tombs))
	for t := range m.tombs {
		list = append(list, t)
	}
	m.tombMu.RUnlock()
	for _, t := range list {
		if _, err := m.s.writeEntry(store.OpDelete, t, false); err != nil {
			m.flushFails.note(fmt.Sprintf("delete %s/%d %q %q: %v", t.Instance, t.Vertex, t.SetKey, t.ObjectID, err))
		}
	}
}

// handOff is a departing server's wait for its successor's pull. The
// successor pulls with NewID = the leaver's own ring ID, which no
// joiner's pull from this server can carry, so the ID picks the
// pull's chunks and commit out of any other traffic.
type handOff struct {
	newID    uint64
	progress chan int // a chunk of the range was served
	done     chan int // the commit dropped this many entries
}

// noteHandOff tells a waiting Depart about the pull with this NewID,
// without blocking: a served chunk (dropped < 0), or the commit and the
// number of entries it dropped.
func (s *Server) noteHandOff(newID uint64, dropped int) {
	h := s.handOff.Load()
	if h == nil || h.newID != newID {
		return
	}
	ch := h.done
	if dropped < 0 {
		ch = h.progress
	}
	select {
	case ch <- dropped:
	default:
	}
}

// Depart begins the graceful departure of this server, whose node has
// ring ID selfID, and returns the wait for its end. It stops the
// server's own inbound migrations without committing them — shutdown
// is not an abort, so their sources keep the ranges, and no late commit
// from here can drop the range the successor is taking over. The
// caller then splices the node out of the ring; the successor pulls
// the node's arc (pred, selfID] with EnqueueMigration(addr, selfID,
// pred) like any other range, double-reading it here, and this server
// keeps answering its chunk pulls and relayed reads meanwhile. wait
// returns the number of entries the pull's commit dropped here; or
// ctx's error; or an error once no chunk has been served for as long
// as the puller takes to give up on one. Until the commit, every entry
// stays in the tables and in the data directory.
func (s *Server) Depart(selfID uint64) (wait func(context.Context) (int, error)) {
	h := &handOff{newID: selfID, progress: make(chan int, 1), done: make(chan int, 1)}
	s.handOff.Store(h)
	s.migrate.close()
	// The stall limit is how long the puller takes to give up on one
	// chunk: the pause before it, then every attempt timed out and
	// backed off.
	c := s.migrate.cfg
	stall := c.Throttle + time.Duration(c.MaxAttempts)*(c.ChunkTimeout+maxRetryBackoff)
	return func(ctx context.Context) (int, error) {
		for {
			select {
			case n := <-h.done:
				return n, nil
			case <-h.progress:
			case <-time.After(stall):
				return 0, fmt.Errorf("core: departure stalled: no chunk pulled for %v", stall)
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
	}
}

// pullChunk fetches one chunk with bounded retries and a per-attempt
// deadline.
func (m *migrationManager) pullChunk(key migKey, cursor wireCursor) (respMigrateChunk, error) {
	raw, err := m.sendRetry(key.source, msgMigrateChunk{
		NewID: key.newID, OwnerID: key.ownerID, Cursor: cursor,
		MaxEntries: m.cfg.ChunkEntries, MaxBytes: defaultChunkBytes,
	})
	if err != nil {
		return respMigrateChunk{}, fmt.Errorf("migrate chunk from %s: %w", key.source, err)
	}
	resp, ok := raw.(respMigrateChunk)
	if !ok {
		return respMigrateChunk{}, fmt.Errorf("migrate chunk from %s: unexpected response %T", key.source, raw)
	}
	return resp, nil
}

// commit tells the source to extract-and-drop the migrated range.
func (m *migrationManager) commit(key migKey) error {
	raw, err := m.sendRetry(key.source, msgMigrateCommit{NewID: key.newID, OwnerID: key.ownerID})
	if err != nil {
		return fmt.Errorf("migrate commit to %s: %w", key.source, err)
	}
	if _, ok := raw.(respMigrateCommit); !ok {
		return fmt.Errorf("migrate commit to %s: unexpected response %T", key.source, raw)
	}
	return nil
}

// sendRetry sends msg with per-attempt timeouts and doubling backoff.
// The configured Sender is the peer's resilience middleware when one is
// wired, so transient faults are additionally absorbed per attempt by
// retry/backoff/breakers there.
func (m *migrationManager) sendRetry(addr transport.Addr, msg any) (any, error) {
	var lastErr error
	backoff := m.cfg.RetryBackoff
	for attempt := 0; attempt < m.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-m.ctx.Done():
				return nil, m.ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
		}
		ctx, cancel := context.WithTimeout(m.ctx, m.cfg.ChunkTimeout)
		raw, err := m.s.cfg.Sender.Send(ctx, addr, msg)
		cancel()
		if err == nil {
			return raw, nil
		}
		lastErr = err
		if m.ctx.Err() != nil {
			return nil, m.ctx.Err()
		}
	}
	return nil, lastErr
}

// logRecord appends an OpMigrate checkpoint through the range-mutation
// path (totally ordered against every entry record). Best effort: a
// failed append only widens the re-pull window after a crash, and the
// chunk inserts are idempotent — so the pull goes on, and the failure
// is counted with its cause.
func (m *migrationManager) logRecord(key migKey, cur wireCursor, done bool) {
	if m.s.store == nil {
		return
	}
	err := m.s.logRangeMutation(migrateRecord(key, cur, done), func() {})
	if err != nil {
		m.checkpointFails.note(fmt.Sprintf("checkpoint pull from %s: %v", key.source, err))
	}
}

// migrateRecord is the OpMigrate checkpoint of key at cursor cur.
func migrateRecord(key migKey, cur wireCursor, done bool) store.Record {
	return store.Record{
		Op: store.OpMigrate, NewID: key.newID, OwnerID: key.ownerID,
		Source: string(key.source), HasCursor: cur.Started, Done: done,
	}.WithEntry(cur.Entry)
}

// applyRecoveredRecord replays one OpMigrate record into the
// recovered-cursor set (WAL/snapshot recovery path).
func (m *migrationManager) applyRecoveredRecord(rec store.Record) {
	key := migKey{newID: rec.NewID, ownerID: rec.OwnerID, source: transport.Addr(rec.Source)}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, had := m.recovered[key]
	if rec.Done {
		if had {
			delete(m.recovered, key)
			if m.windowCount.Add(-1) == 0 {
				m.tombMu.Lock()
				m.tombs = make(map[store.Entry]struct{})
				m.tombMu.Unlock()
			}
		}
		return
	}
	m.recovered[key] = wireCursor{Started: rec.HasCursor, Entry: rec.Entry()}
	if !had {
		m.windowCount.Add(1)
	}
}

// crashReset drops the recovered/tombstone state alongside the table
// wipe of Server.CrashReset; a following RecoverFromStore rebuilds
// both from the data directory.
func (m *migrationManager) crashReset() {
	m.mu.Lock()
	m.recovered = make(map[migKey]wireCursor)
	m.windowCount.Store(int32(len(m.active)))
	m.mu.Unlock()
	m.tombMu.Lock()
	m.tombs = make(map[store.Entry]struct{})
	m.tombMu.Unlock()
}

// dumpState re-emits the open-migration checkpoints and window
// tombstones into a snapshot: compaction truncates the WAL that held
// them, and losing the cursor would restart (or worse, never resume)
// the transfer. Tombstones ride as OpDelete records emitted after the
// OpMigrate markers, so replay re-tombstones them. Caller holds
// stateMu exclusively.
func (m *migrationManager) dumpState(emit func(store.Record) error) error {
	m.mu.Lock()
	recs := make([]store.Record, 0, len(m.active)+len(m.recovered))
	for key, mig := range m.active {
		recs = append(recs, migrateRecord(key, mig.cursor, false))
	}
	for key, cur := range m.recovered {
		recs = append(recs, migrateRecord(key, cur, false))
	}
	m.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].NewID != recs[j].NewID {
			return recs[i].NewID < recs[j].NewID
		}
		return recs[i].Source < recs[j].Source
	})
	for _, rec := range recs {
		if err := emit(rec); err != nil {
			return err
		}
	}
	m.tombMu.RLock()
	tombs := make([]store.Entry, 0, len(m.tombs))
	for t := range m.tombs {
		tombs = append(tombs, t)
	}
	m.tombMu.RUnlock()
	slices.SortFunc(tombs, store.Entry.Compare)
	for _, t := range tombs {
		if err := emit(store.Record{Op: store.OpDelete}.WithEntry(t)); err != nil {
			return err
		}
	}
	return nil
}

// close cancels every worker and waits them out; called from
// Server.Close before the store closes so no worker appends to a
// closed WAL.
func (m *migrationManager) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// ---- window state consulted by the read/mutation paths ----

// windowOpen is the hot-path gate: true only while a migration window
// (active or recovered) is open.
func (m *migrationManager) windowOpen() bool {
	return m != nil && m.windowCount.Load() != 0
}

// sources returns the old-owner addresses whose open windows cover the
// vertex key of (instance, v) — the double-read targets.
func (m *migrationManager) sources(instance string, v hypercube.Vertex) []transport.Addr {
	if !m.windowOpen() {
		return nil
	}
	key := VertexKey(instance, v)
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []transport.Addr
	add := func(k migKey) {
		// The migrating range is the complement of (newID, ownerID]; a
		// key this node owns and that complement covers is in flight.
		if dht.Between(key, dht.ID(k.newID), dht.ID(k.ownerID)) {
			return
		}
		for _, a := range out {
			if a == k.source {
				return
			}
		}
		out = append(out, k.source)
	}
	for k := range m.active {
		add(k)
	}
	for k := range m.recovered {
		add(k)
	}
	return out
}

// hasTombstone reports whether e was deleted during an open window.
func (m *migrationManager) hasTombstone(e store.Entry) bool {
	if !m.windowOpen() {
		return false
	}
	m.tombMu.RLock()
	_, ok := m.tombs[e]
	m.tombMu.RUnlock()
	return ok
}

// noteWrite keeps e's tombstone while a window is open: a delete sets
// it, whether or not the entry had arrived yet, and an insert clears it
// (a re-inserted entry is live again). Called under the entry's shard
// lock (Server.applyEntryLocked), so it serializes against writeEntry's
// tombstone check of a pulled entry.
func (m *migrationManager) noteWrite(op store.Op, e store.Entry) {
	if !m.windowOpen() {
		return
	}
	m.tombMu.Lock()
	if op == store.OpDelete {
		m.tombs[e] = struct{}{}
	} else {
		delete(m.tombs, e)
	}
	m.tombMu.Unlock()
}

// ---- double-read merge paths ----

// doubleRead scans (instance, v) while it sits in the open windows of
// srcs, the old owners: it merges unwindowed local and relayed scans,
// filters tombstones, re-sorts into the canonical (set key, object ID)
// order and applies skip/limit — byte-identical to scanning the union
// table. arc and the owned result are scanVertex's. The caller holds
// no stripe lock (unitScanner.read).
func (s *Server) doubleRead(ctx context.Context, srcs []transport.Addr, arc ownedArc, instance string, v, root hypercube.Vertex, pred queryPred, skip, limit int) ([]Match, int, bool) {
	merged, _, owned := s.scanVertex(arc, instance, v, root, pred, 0, -1)
	if !owned {
		return nil, 0, false
	}
	type mk struct{ setKey, id string }
	seen := make(map[mk]struct{}, len(merged))
	for _, mt := range merged {
		seen[mk{mt.SetKey, mt.ObjectID}] = struct{}{}
	}
	msg := msgSubQueryBatch{Instance: instance, Root: uint64(root), QueryKey: pred.key,
		Class: pred.class, Limit: -1, Units: []wireUnit{{Vertex: uint64(v)}}, Relay: true}
	for _, src := range srcs {
		s.migrate.nDoubleReads.Add(1)
		s.migrate.met.doubleReads.Inc()
		raw, err := s.cfg.Sender.Send(ctx, src, msg)
		resp, ok := raw.(respSubQueryBatch)
		if err == nil && (!ok || !resp.fits(1) || len(resp.Hits) == 1 && resp.Hits[0].ErrCode != errCodeNone) {
			err = fmt.Errorf("unexpected answer %T %+v", raw, raw)
		}
		if err != nil {
			// The vertex is answered from the local half alone.
			s.migrate.relayFails.note(fmt.Sprintf("relay to %s: %v", src, err))
			continue
		}
		var matches []Match
		if len(resp.Hits) == 1 {
			matches = resp.Hits[0].Matches
		}
		for _, mt := range matches {
			k := mk{mt.SetKey, mt.ObjectID}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			merged = append(merged, mt)
		}
	}
	out := merged[:0:0]
	for _, mt := range merged {
		if s.migrate.hasTombstone(store.Entry{Instance: instance, Vertex: uint64(v), SetKey: mt.SetKey, ObjectID: mt.ObjectID}) {
			continue
		}
		out = append(out, mt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SetKey != out[j].SetKey {
			return out[i].SetKey < out[j].SetKey
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	if skip > 0 {
		if skip >= len(out) {
			return nil, 0, true
		}
		out = out[skip:]
	}
	remaining := 0
	if limit >= 0 && len(out) > limit {
		remaining = len(out) - limit
		out = out[:limit]
	}
	if len(out) == 0 {
		return nil, remaining, true
	}
	return out, remaining, true
}

// ---- source-side chunk extraction ----

// chunkBytes approximates a chunk's wire size for MaxBytes accounting.
func chunkBytes(entries []store.Entry) uint64 {
	var n uint64
	for _, e := range entries {
		n += entrySize(e)
	}
	return n
}

func entrySize(e store.Entry) uint64 {
	return uint64(len(e.Instance)+len(e.SetKey)+len(e.ObjectID)) + 16
}

// migrateChunk serves one cursor-paged, read-only chunk of the entries
// the puller now owns: those whose vertex key is NOT in (NewID,
// OwnerID]. Nothing is deleted — the range keeps serving reads here
// until msgMigrateCommit — and no transfer state is kept: the cursor
// is client-driven, so a crashed (and resumed) puller needs nothing
// from this side. Iteration follows the canonical sorted order, which
// makes any cursor an exact resume point.
func (s *Server) migrateChunk(ctx context.Context, msg msgMigrateChunk) (respMigrateChunk, error) {
	maxEntries := msg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = defaultChunkEntries
	}
	maxBytes := msg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultChunkBytes
	}

	// The (instance, vertex) pairs to walk, as entries with no set key
	// or object ID: sorted, they lead each vertex's run of entries.
	var pairs []store.Entry
	for _, sh := range s.shards {
		sh.mu.RLock()
		for instance, vertices := range sh.tables {
			for v, tbl := range vertices {
				if dht.Between(tbl.ringKey, dht.ID(msg.NewID), dht.ID(msg.OwnerID)) {
					continue // still this node's
				}
				pairs = append(pairs, store.Entry{Instance: instance, Vertex: uint64(v)})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(pairs, store.Entry.Compare)

	var resp respMigrateChunk
	var bytes uint64
	full := false
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			return respMigrateChunk{}, err
		}
		v := hypercube.Vertex(p.Vertex)
		sh := s.shardFor(p.Instance, v)
		sh.rlock(s.met.shardLockWait)
		tbl, ok := sh.tables[p.Instance][v]
		if !ok {
			sh.mu.RUnlock()
			continue
		}
		more := !tbl.walk(func(setKey, id string) bool {
			e := p
			e.SetKey, e.ObjectID = setKey, id
			if msg.Cursor.Started && e.Compare(msg.Cursor.Entry) <= 0 {
				return true
			}
			if full {
				return false
			}
			resp.Entries = append(resp.Entries, e)
			bytes += entrySize(e)
			full = len(resp.Entries) >= maxEntries || bytes >= uint64(maxBytes)
			return true
		})
		sh.mu.RUnlock()
		if more {
			return resp, nil // Done=false: entries remain past the cursor
		}
	}
	resp.Done = true
	return resp, nil
}
