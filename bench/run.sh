#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build and the run write (Go build
# cache, temp files, raft logs, shard snapshots) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/mochi-bench" .)
exec "$build/mochi-bench" -dir "$here" "$@"
