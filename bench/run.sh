#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the `command` of
# BENCHMARK.json. Everything the build writes (binary, Go build cache,
# Go's own per-user state) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
    echo "bench/run.sh: no go.mod in $root: the program's source is not here, nothing to measure" >&2
    exit 1
fi
build="$root/.bench_build"
# HOME is fresh, so Go would find no telemetry state and start its telemetry
# sidecar, a detached child that outlives `go build`. Mode "off" stops that.
mkdir -p "$build/home/.config/go/telemetry" "$build/tmp"
echo off > "$build/home/.config/go/telemetry/mode"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
    GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0 \
    go build -o "$build/ofbench" ./bench
exec "$build/ofbench" "$@"
