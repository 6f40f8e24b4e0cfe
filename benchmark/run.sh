#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, results and scratch under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/cascade-benchmark" .
exec "$build/cascade-benchmark" "$@"
