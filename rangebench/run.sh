#!/usr/bin/env bash
# Builds the range benchmark from source and runs it with the given flags:
#
#   bash rangebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, campaign stores, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/rangebench" && go build -o "$out/bin/rangebench" .)
exec "$out/bin/rangebench" "$@"
