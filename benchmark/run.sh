#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload node_bulk --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write (Go build cache, binary, store directories, traces) stays under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C benchmark -o "$out/reservoir-benchmark" .
exec "$out/reservoir-benchmark" "$@"
