#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload report-1m --seed 1 --seconds 15 --trace 0
#
# Build caches and outputs stay under .bench_build/ in the checkout.
set -u
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" || exit 2
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
