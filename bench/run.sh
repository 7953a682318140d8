#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: compiles the harness inside the
# checkout (Go's build cache, temp files and the binaries all live under
# bench/out/, which .gitignore names) and runs it with the arguments given.
# `go run ./bench ...` from the repository root does the same with the
# user's own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bin/bench" ./bench
exec "$out/bin/bench" "$@"
