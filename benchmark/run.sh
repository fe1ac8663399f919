#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, passing every
# argument through. BENCHMARK.json names this script as its command:
#
#   bash benchmark/run.sh --workload sweep_miss_small --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the toolchain's temporary and configuration
# directories and the binary live under .bench_build/ at the root of the
# checkout, so nothing is written outside it. The build fails --
# and the script exits non-zero without printing a result -- when the
# repository's own packages (../internal/...) are missing: the benchmark
# measures the repository, not a copy of it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$here"
# Outside a git work tree there is no revision to stamp; inside a broken one
# the stamping fails, so fall back to building without it.
go build -o "$build/bifrost-benchmark" . 2>/dev/null || go build -buildvcs=false -o "$build/bifrost-benchmark" .
exec "$build/bifrost-benchmark" "$@"
