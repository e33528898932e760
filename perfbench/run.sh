#!/usr/bin/env bash
# Builds the arb benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
