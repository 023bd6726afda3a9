#!/usr/bin/env bash
# Builds the hailperf benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash hailperf/run.sh --workload scan --seed 1 --seconds 20 --trace 0
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/hailperf/go.mod" ]]; then
	echo "hailperf: run from the repository root (needs go.mod, internal/ and hailperf/)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off \
	GOPROXY=off GOSUMDB=off TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go -C "$root/hailperf" build -o "$build/hailperf" .
exec "$build/hailperf" -workdir "$build" "$@"
