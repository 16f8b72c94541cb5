#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload ring64-audited --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the checkout, and the toolchain never downloads anything.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
