GO ?= go

.PHONY: all build test race cover bench bench-smoke alloc-smoke crash-smoke load-smoke churn-smoke fuzz-smoke zipf-smoke prefix-smoke batch-smoke figures fmt vet nogob clean ci chaos loc hammer

all: build test

# `make ci` is the full verification gate; `make loc` prints the code
# size CHANGES.md records. ci: static checks (vet, and no shipped file
# imports encoding/gob — there is one wire), build, the race-enabled test
# suite (includes the telemetry concurrency hammer), the allocation
# budgets, the seeded chaos suite, the SIGKILL crash-recovery smoke, the
# live-churn migration smoke, the open-loop load-rig smoke, the
# wire-decoder, listener-preamble, table, reference-store, Chord-decoder,
# core-decoder, inverted-index-decoder, WAL-record, keyword-key and
# keyword-signature fuzz smokes, the Zipf
# hotspot-storm smoke, the prefix-multicast smoke, the wave-batching
# study smoke, and a single-iteration benchmark smoke pass.
ci: vet nogob build race alloc-smoke chaos crash-smoke churn-smoke load-smoke fuzz-smoke zipf-smoke prefix-smoke batch-smoke bench-smoke

# Allocation budgets, run on their own so a regression names itself
# instead of hiding in tier-1 time: bytes allocated per contacted
# vertex of an exhaustive wave (<= 18 B on a 16-peer ring at r = 10; the
# root's per-vertex buffers and batch frames' units come from a pooled
# scratch, a peer scans a frame on the goroutine that received it, and
# an answer is allocated once per frame and once per wave)
# and of a multi-round top-10 search of the same query (<= 124 B; the
# root generates every SBT child list, no reply carries one), the
# allocations of one 64-unit sub-query frame (none without hits, two
# with any: the hit list and one match arena), live
# heap per stored single-publisher DHT reference (<= 128 B over
# 20 k objects), live heap per stored table entry (<= 64 B over the
# 20 k-object deep_inmem corpus in 1 024 tables: an entry is its set
# key and object ID, matched in place), zero allocations for the
# in-place key readers (KeySubset, KeyHasPrefix, KeySignature, KeyLen,
# CanonicalKey) on a canonical key and for sorting a 64-match answer,
# zero for a message a muxed endpoint's
# second layer takes, zero for telemetry on a TCP send with telemetry
# off, zero for encoding any index-protocol message, and at most 12
# allocations and 400 B for one warm small TCP RPC, both ends counted
# (no encode copy, one box per decode, reused Readers, the request
# frame as its own arena, pooled reply channels), zero for a warm WAL
# append of an insert record, and one for decoding one (its strings
# share one copy of the record's payload). Without -race: the
# detector's instrumentation allocates on its own account, so under
# `make race` the per-vertex, per-frame and per-RPC budgets skip
# themselves.
alloc-smoke:
	$(GO) test -count=1 -run 'BytesPerVertex|BytesPerObject|BytesPerCall|AllocatesNothing|AllocatesOncePerRecord|FrameAllocs' ./internal/core ./internal/dht ./internal/keyword ./internal/store ./internal/transport ./internal/transport/tcpnet

# The churn hammer's flake rate, the number every PR quotes beside its
# result until ROADMAP item 1 closes (not part of ci — it only prints):
# TestChurnHammer HAMMER_RUNS times (default 100) in one process of the
# root package's test binary, built once, then failed/N and each
# distinct failure line with its count. Separate `go test` processes
# under-read the flake: on one commit twenty of them read 1 in 40 where
# 400 runs in-process read 13.
HAMMER_RUNS ?= 100
hammer:
	@dir=$$(mktemp -d) && $(GO) test -c -o $$dir/keysearch.test . && \
	out=$$($$dir/keysearch.test -test.run 'TestChurnHammer$$' -test.count=$(HAMMER_RUNS) -test.v 2>&1); \
	rm -rf $$dir; \
	echo "TestChurnHammer: $$(printf '%s\n' "$$out" | grep -c -- '--- FAIL: TestChurnHammer')/$(HAMMER_RUNS) failed"; \
	printf '%s\n' "$$out" | grep -E '^[[:space:]]+[^[:space:]]+_test\.go:[0-9]+: ' | sed 's/^[[:space:]]*//' | sort | uniq -c

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
# style per-keyword-index model) — checked byte for byte against the
# recorded results/prefix.txt (`make figures` records it, at the same
# 5 000 objects).
prefix-smoke:
	$(GO) test -count=1 -run 'TestPrefix' ./internal/core/ ./internal/sim/
	$(GO) run ./cmd/ksbench -fig prefix -objects 5000 | diff results/prefix.txt -

# Wave-batching study smoke: the batch study (the one user of
# BatchOff — one unit per frame — beside the tests) regenerated and
# checked byte for byte against the recorded results/batch.txt: per
# query the matches, logical messages and physical frames unbatched and
# batched. The file holds the run's two stderr progress lines ahead of
# the table, so both streams are compared.
batch-smoke:
	$(GO) run ./cmd/ksbench -fig batch 2>&1 | diff results/batch.txt -

# Zipf hotspot-storm smoke: a short Zipf-popular query-log replay with
# the full hot-vertex layer on (popularity cache, refinement reuse,
# soft replication, client spreading), asserting byte-identical
# answers versus a cache-off fleet and the cache-hit accounting
# identities the core_cache_* and core_soft_* counters rely on.
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
# IDs 32-49), the index-protocol decoders (wire IDs 1-4, 7, 8, 11, 12
# and 14-19) and the inverted-index decoders (wire IDs 64-69): a clean error
# or a value that re-encodes to exactly the input, with allocation
# bounded by the payload. The WAL/snapshot record reader: no panic, a
# decoded prefix that re-encodes to its bytes, torn tails told apart
# from corrupt middles, allocation bounded per input byte. The keyword
# key parser: ParseKey equals NewSet over the key's words for any
# input, canonical or not; CanonicalKey is that set's key, and on it the
# in-place readers answer what the parsed set does. Seed corpora are
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
	$(GO) test -run '^$$' -fuzz FuzzParseKey -fuzztime 10s ./internal/keyword/
	$(GO) test -run '^$$' -fuzz FuzzSignatureContainment -fuzztime 10s ./internal/keyword/

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
	$(GO) run ./cmd/ksbench -fig batch > results/batch.txt 2>&1
	$(GO) run ./cmd/ksbench -fig churn > results/churn.txt
	$(GO) run ./cmd/ksbench -fig prefix -objects 5000 > results/prefix.txt

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

nogob:
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '"encoding/gob"' .

clean:
	$(GO) clean ./...
