#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload analyze-v3-convergent --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$src" && go build -o "$build/tfbench" .)
exec "$build/tfbench" "$@"
