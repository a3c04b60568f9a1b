#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash jigperf/run.sh --workload building_batch --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and the generated inputs all live under
# .bench_build/ in the checkout. Build output goes to standard error, so
# the last line of standard output is the benchmark's result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/jigperf" && go build -o "$build/jigperf" .) >&2
cd "$root"
exec "$build/jigperf" "$@"
