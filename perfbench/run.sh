#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload oltp_wire --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the checkout; a traced run writes its spans under .bench_out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	XDG_CACHE_HOME="$build/cache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pstorebench" .)
cd "$root"
exec "$build/pstorebench" "$@"
