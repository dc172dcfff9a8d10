#!/usr/bin/env bash
# Builds the benchmark and the symnetd daemon from the checkout it runs in,
# then runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload allpairs --seed 1 --seconds 10 --trace 0
#
# Every build and cache file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/symnetd" symnet/cmd/symnetd) >&2

exec "$build/bin/perfbench" -symnetd "$build/bin/symnetd" \
	-expected "$root/perfbench/expected/allpairs.json" -spans "$build/spans" "$@"
