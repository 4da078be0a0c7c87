#!/usr/bin/env bash
# Builds the benchmark and the wsanalyzed service from source, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache, temporary files and the span
# file stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/wsanalyzed" ./cmd/wsanalyzed
exec "$out/perfbench" -wsanalyzed "$out/wsanalyzed" -trace-out "$out/bench-trace.json" "$@"
