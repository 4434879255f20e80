#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload fleet-ops --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, journals and span dumps all stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
