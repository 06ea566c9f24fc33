#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind stays inside the checkout: the Go build cache and the
# binary under .bench_build/, scratch files under benchmark/out/.
#
#   bash benchmark/run.sh --workload wan_steady --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --workload wan_steady --seed 1 --seconds 20 --trace 1
#   bash benchmark/run.sh -series 10          # the driver's acceptance check
#   bash benchmark/run.sh -list
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
out="$here/out"
mkdir -p "$build/tmp" "$out"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export TMPDIR="$out"

(cd "$here" && go build -o "$build/clanbench" .)
exec "$build/clanbench" -out "$out" "$@"
