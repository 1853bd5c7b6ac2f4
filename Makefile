GO ?= go

.PHONY: all build test race cover bench bench-smoke alloc-smoke crash-smoke load-smoke churn-smoke fuzz-smoke zipf-smoke prefix-smoke figures fmt vet nogob clean ci chaos loc hammer

all: build test

# `make ci` is the full verification gate; `make loc` prints the code
# size CHANGES.md records. ci: static checks (vet, and no shipped file
# imports encoding/gob — there is one wire), build, the race-enabled test
# suite (includes the telemetry concurrency hammer), the allocation
# budgets, the seeded chaos suite, the SIGKILL crash-recovery smoke, the
# live-churn migration smoke, the open-loop load-rig smoke, the
# wire-decoder, listener-preamble, table, reference-store, Chord-decoder,
# core-decoder, inverted-index-decoder and WAL-record fuzz smokes, the Zipf
# hotspot-storm smoke, the prefix-multicast smoke, and a single-iteration
# benchmark smoke pass.
ci: vet nogob build race alloc-smoke chaos crash-smoke churn-smoke load-smoke fuzz-smoke zipf-smoke prefix-smoke bench-smoke

# Allocation budgets, run on their own so a regression names itself
# instead of hiding in tier-1 time: bytes allocated per contacted
# vertex of an exhaustive wave (<= 130 B on a 16-peer ring at r = 10),
# live heap per stored single-publisher DHT reference (<= 128 B over
# 20 k objects), zero allocations for a message a muxed endpoint's
# second layer takes, and zero for telemetry on a TCP send with
# telemetry off. Without -race: the detector's instrumentation
# allocates on its own account, so under `make race` the per-vertex
# budget skips itself.
alloc-smoke:
	$(GO) test -count=1 -run 'BytesPerVertex|BytesPerObject|AllocatesNothing' ./internal/core ./internal/dht ./internal/transport ./internal/transport/tcpnet

# The churn hammer's flake rate, the number every PR quotes beside its
# result until ROADMAP item 1 closes (not part of ci — it only prints):
# twenty separate runs of TestChurnHammer, failed/20.
hammer:
	@failed=0; for i in $$(seq 20); do \
		$(GO) test -count=1 -run TestChurnHammer . >/dev/null 2>&1 || failed=$$((failed+1)); \
	done; echo "TestChurnHammer: $$failed/20 failed"

# Code size, the number CHANGES.md records per PR (not part of ci —
# `make loc` only prints): non-blank, non-comment lines of non-test Go,
# per package and, for internal/core, per file. Denser formatting and
# deleted comments do not move it; removed code paths do.
LOC_AWK = FNR == 1 { blk = 0; k = FILENAME; if (by == "dir") sub(/\/[^\/]*$$/, "", k) } \
	{ l = $$0; sub(/^[ \t]+/, "", l); \
	  if (blk) { if (l ~ /\*\//) blk = 0; next } \
	  if (l == "" || l ~ /^\/\//) next; \
	  if (l ~ /^\/\*/) { if (l !~ /\*\//) blk = 1; next } \
	  n[k]++ } \
	END { for (k in n) printf "%6d  %s\n", n[k], k }
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort \
		| xargs awk -v by=dir '$(LOC_AWK)' | sort -k2
	@ls internal/core/*.go | grep -v _test.go | xargs awk -v by=file '$(LOC_AWK)' | sort -k2

# One iteration of every benchmark, as a smoke test. What it gates is
# deterministic: the figure pipelines still run end to end,
# BenchmarkWaveBatching enforces its >= 3x physical-frame reduction on
# the 64-peer fleet at r = 10, and BenchmarkHotQueryCache asserts that
# the popularity cache keeps the Zipf head (< 1% misses) where FIFO
# thrashes (>= 1%) at equal capacity. Wall-clock time gates nothing
# here — benchmarks/ksperf's bounds are the timing gate — and is only
# reported: BenchmarkDurableIndexingOverhead's WAL overhead with
# fsync=interval (recorded with the other durability benchmarks into
# results/wal.txt), BenchmarkWireCodec's and BenchmarkWireRPC's time,
# allocations and bytes (recorded into results/wire.txt; their byte
# sizes are pinned by TestWireCodecBytesPinned and
# TestWireRPCBytesPinned in tier-1), and BenchmarkHotQueryCache's hot
# vs FIFO p99 (recorded into results/cache.txt). BenchmarkMegaWave
# prints time, bytes and allocations of one exhaustive r = 10 wave over
# a 16-peer ring at a steady iteration count (bytes/op / 512 is
# alloc-smoke's per-vertex figure).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) test -run '^$$' -bench BenchmarkMegaWave -benchtime 200x ./internal/core/
	mkdir -p results
	$(GO) test -run '^$$' -bench BenchmarkWALAppend -benchtime 5000x ./internal/store/ \
		| tee results/wal.txt
	$(GO) test -run '^$$' -bench BenchmarkDurableIndexingOverhead -benchtime=1x ./internal/sim/ \
		| tee -a results/wal.txt
	$(GO) test -run '^$$' -bench BenchmarkWireCodec -benchtime=1x -benchmem ./internal/core/ \
		| tee results/wire.txt
	$(GO) test -run '^$$' -bench BenchmarkWireRPC -benchtime=1x ./internal/transport/tcpnet/ \
		| tee -a results/wire.txt
	$(GO) test -run '^$$' -bench BenchmarkHotQueryCache -benchtime=1x ./internal/sim/ \
		| tee results/cache.txt

# Open-loop load-rig smoke: a short seeded ksload-style run against an
# inmem fleet with admission control on, asserting the accounting
# identities the BENCH files rely on (outcome buckets partition the
# offered load; server-side admission decisions reconcile with the
# rig's view) plus a BENCH file round trip.
load-smoke:
	$(GO) test -count=1 -run 'TestLoadSmoke' ./internal/load/

# SIGKILL crash-recovery smoke: a child process publishes through a
# durable fsync=always peer, is killed without any shutdown path, and
# a restart over the same data directory must answer pin and superset
# searches exactly.
crash-smoke:
	$(GO) test -count=1 -run 'CrashRecovery' .

# Live-churn migration smoke: the SIGKILL crash-resume transfer (a
# durable puller killed between chunks must resume from its WAL cursor
# with no entry lost or duplicated), the frozen double-read window
# equivalence check (answers byte-identical to a static fleet mid-
# transfer), and the seeded churn fingerprint replay. Also records the
# churn chaos study into results/churn.txt.
churn-smoke:
	$(GO) test -count=1 -run 'MigrateCrash|SearchDuringMigration|ChurnFingerprint' .
	mkdir -p results
	$(GO) run ./cmd/ksbench -fig churn -objects 5000 > results/churn.txt

# Prefix-multicast smoke: byte-identical prefix answers across the
# batching × cache-policy matrix, prefix/superset cache isolation, the
# prefix-under-migration double-read check, and the cost study —
# exclusion-mask multicast vs naive per-dimension fan-out (the DII-
# style per-keyword-index model) — recorded into results/prefix.txt.
prefix-smoke:
	$(GO) test -count=1 -run 'TestPrefix' ./internal/core/ ./internal/sim/
	mkdir -p results
	$(GO) run ./cmd/ksbench -fig prefix -objects 5000 > results/prefix.txt

# Zipf hotspot-storm smoke: a short Zipf-popular query-log replay with
# the full hot-vertex layer on (popularity cache, refinement reuse,
# soft replication, client spreading), asserting byte-identical
# answers versus a cache-off fleet and the cache-hit accounting
# identities the BENCH fields rely on.
zipf-smoke:
	$(GO) test -count=1 -run 'TestZipfSmoke' ./internal/sim/

# Fuzz smoke, ten seconds of coverage-guided fuzzing each. The frame
# decoder: arbitrary bytes must produce a clean error, never a panic, an
# over-allocation, or a frame that fails to round trip. The listener's
# preamble (magic, handshake, first frame length) served off a pipe: no
# panic, no hang, no handler without the magic, bounded allocation. The
# flat vertex table: arbitrary insert/remove/scan sequences over one
# vertex must agree with a plain map model for every query class and
# window. The DHT reference store: arbitrary insert/delete/refs/extract
# sequences must agree with a nested-map model. The Chord decoders (wire
# IDs 32-49), the index-protocol decoders (wire IDs 1-4, 7-12 and
# 14-19) and the inverted-index decoders (wire IDs 64-69): a clean error
# or a value that re-encodes to the input, with allocation bounded by
# the payload. The WAL/snapshot record reader: no panic, a decoded
# prefix that re-encodes to its bytes, torn tails told apart from
# corrupt middles, allocation bounded per input byte. Seed corpora are
# checked in under testdata/fuzz; the full corpora live under the
# standard go fuzz cache.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s ./internal/transport/tcpnet/
	$(GO) test -run '^$$' -fuzz FuzzListenerPreamble -fuzztime 10s ./internal/transport/tcpnet/
	$(GO) test -run '^$$' -fuzz FuzzTableOps -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzRefStoreOps -fuzztime 10s ./internal/dht/
	$(GO) test -run '^$$' -fuzz FuzzChordDecode -fuzztime 10s ./internal/dht/chord/
	$(GO) test -run '^$$' -fuzz FuzzCoreDecode -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzInvindexDecode -fuzztime 10s ./internal/invindex/
	$(GO) test -run '^$$' -fuzz FuzzStoreRecord -fuzztime 10s ./internal/store/

# Seeded chaos suite: deterministic fault-schedule replays, the
# resilience policy tests, the server concurrency hammer (parallel
# inserts/deletes/batch scans on one sharded server), and the churn
# hammer (searches and mutations racing join/leave cycles with live
# migrations), all under the race detector. Then 300 rounds of the two
# mux-retry tests (about a second): a sender must never be handed the
# mux it just failed on, and that window is too narrow for one run.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Breaker|Retry|Hedge|Latency|ListenerClose|Hammer' \
		. ./internal/sim/ ./internal/resilience/ ./internal/transport/... ./internal/core/
	$(GO) test -count=300 -run 'TestRedialAfterListenerRestart|TestSendRedialsPastDeadMux' ./internal/transport/tcpnet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure at full scale into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/ksbench -fig 5 > results/fig5.txt
	$(GO) run ./cmd/ksbench -fig 6 > results/fig6.txt
	$(GO) run ./cmd/ksbench -fig 7 > results/fig7.txt
	$(GO) run ./cmd/ksbench -fig eq1 > results/eq1.txt
	$(GO) run ./cmd/ksbench -fig costs > results/costs.txt
	$(GO) run ./cmd/ksbench -fig 8 > results/fig8.txt
	$(GO) run ./cmd/ksbench -fig 9 -fig9-max 60000 > results/fig9.txt
	$(GO) run ./cmd/ksbench -fig ft > results/ft.txt
	$(GO) run ./cmd/ksbench -fig batch > results/batch.txt
	$(GO) run ./cmd/ksbench -fig churn > results/churn.txt
	$(GO) run ./cmd/ksbench -fig prefix > results/prefix.txt

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

nogob:
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '"encoding/gob"' .

clean:
	$(GO) clean ./...
