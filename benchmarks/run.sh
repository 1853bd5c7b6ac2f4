#!/usr/bin/env bash
# Builds ksperf from this checkout and runs it from the repository root,
# which is where BENCHMARK.json's command is started. Everything the
# build and the run write stays inside the checkout: the binary and the
# Go build cache under .bench_build/, results under benchmarks/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/ksperf ./benchmarks/ksperf
exec "$root/.bench_build/ksperf" "$@"
