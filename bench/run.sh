#!/usr/bin/env bash
# Builds the benchmark and noded from source into .bench_build/ at the
# repository root, then runs the benchmark with the arguments given. The Go
# build cache and every file the run writes stay under that directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/bench" .
go build -o "$build/noded" repro/cmd/noded
exec "$build/bench" -noded "$build/noded" -workdir "$build/work" "$@"
