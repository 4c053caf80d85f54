#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a module of
# its own, bench/go.mod) from the checkout's source and runs it from the
# repository root; the benchmark then builds cmd/raquery itself. The Go
# build cache and module path are kept inside the checkout so that
# nothing outside it is read or written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/radiv-bench" .)
exec "$build/radiv-bench" "$@"
