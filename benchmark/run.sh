#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into .bench_build/ at the root of the checkout — Go's build
# cache and temporary files too, so nothing is written outside the checkout —
# and run it from the root with the driver's arguments:
#
#   bash benchmark/run.sh --workload perm-ndp --seed 3 --seconds 20 --trace 0
#
# A person would rather type `go run -C benchmark . -workload all`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/ndpbench" .)
cd "$root"
exec "$build/ndpbench" "$@"
