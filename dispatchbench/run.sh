#!/usr/bin/env bash
# Builds the benchmark and the dispatchd daemon from the checkout it is
# run in, then runs one workload:
#
#   bash dispatchbench/run.sh --workload nyc-backlog --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache included, stays under .bench_build/ so the run reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off

go -C "$root/dispatchbench" build -o "$out/bin/dispatchbench" .
go -C "$root" build -o "$out/bin/dispatchd" ./cmd/dispatchd
exec "$out/bin/dispatchbench" -dispatchd "$out/bin/dispatchd" -out "$out/out" "$@"
