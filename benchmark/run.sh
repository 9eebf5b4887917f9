#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given.
#
# Everything the build and the run leave behind goes under .bench_build/
# at the checkout root: the Go build cache, the binary, and the default
# -out directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/reesift-bench" .)
exec "$build/reesift-bench" -out "$build/out" "$@"
