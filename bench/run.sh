#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's arguments.
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
cd "$(dirname "$here")"
exec "$build/bench" "$@"
