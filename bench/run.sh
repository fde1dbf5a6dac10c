#!/usr/bin/env bash
# Builds the performance ledger from source and runs it from the root of a
# mufuzz checkout:
#
#   bash bench/run.sh --workload crowdsale-buggy-w1 --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the go command's telemetry counters, the
# compiled benchmark, and the temporary stores of the fleet workload.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

go -C bench build -o "$out/mufuzz-bench" .
exec "$out/mufuzz-bench" "$@"
