#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload stabilize --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and trace file goes to .bench_build in the
# checkout; nothing is fetched over the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
