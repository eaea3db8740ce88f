#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into benchmark/.build/, with the Go build cache and GOPATH kept there
# too so that nothing outside the checkout is written, then runs it from
# the root of the checkout with the arguments given. Where the
# repository's Go module is not present it fails and prints no result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside benchmark/: run from a checkout of the repository" >&2
	exit 1
fi
build="$PWD/benchmark/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
