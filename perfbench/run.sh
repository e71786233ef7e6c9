#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload gw-mixed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build in the current directory (Go build cache included), and the
# build never reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
