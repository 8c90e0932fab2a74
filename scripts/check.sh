#!/bin/sh
# check.sh — the repo's full verification gate: build, vet, and the
# complete test suite under the race detector. Run from the repo root
# (or let the cd below handle it).
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# The smoke programs under scripts/ carry //go:build ignore (each runs
# as `go run scripts/<name>.go`), so ./... skips them and they could
# rot unnoticed; vet each one by file name, as bash -n does below for
# the shell scripts.
echo "==> go vet scripts/*.go"
for prog in $(git grep -l '^//go:build ignore' -- 'scripts/*.go'); do
	go vet "$prog"
done

# Every tracked Go file, the nested perfbench module included, must be
# gofmt-clean.
echo "==> gofmt -l"
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Every tracked shell script must parse, so that a script the suite
# never runs (scripts/bench_ab.sh takes minutes) cannot rot unnoticed.
echo "==> bash -n"
for script in $(git ls-files '*.sh'); do
	bash -n "$script"
done

# perfbench is a nested module (the repository benchmark), so the root
# ./... patterns skip it. Building and vetting it here catches a change
# to the exported API it uses before the benchmark itself breaks. The
# binary goes to /dev/null so the module directory stays untouched.
echo "==> perfbench: go build ./... && go vet ./..."
(cd perfbench && GOWORK=off go build -o /dev/null ./... && GOWORK=off go vet ./...)

echo "==> go test -race ./..."
go test -race ./...

# Optional memory gate: CHECK_BENCH_MEM=1 also runs the zero-allocation
# tests and the allocation-reporting benchmarks of the sampling/grading
# hot loops (make bench-mem). Off by default — the same assertions run
# (race-enabled) in the suite above; this stage re-runs them without
# the race detector's allocator interference and prints allocs/op.
if [ "${CHECK_BENCH_MEM:-0}" = "1" ]; then
	echo "==> make bench-mem"
	make bench-mem
fi

# Optional I/O smoke gate: CHECK_IO_SMOKE=1 generates an n=10000
# cohort in both file formats with the real fpgen binary and requires
# `fpreport -data` off each file to reproduce the in-process report
# byte for byte (make io-smoke). Off by default — the same contract is
# pinned in-process at n=199 by the golden tests in the suite above;
# this stage additionally exercises the built binaries and real files.
if [ "${CHECK_IO_SMOKE:-0}" = "1" ]; then
	echo "==> make io-smoke"
	make io-smoke
fi

# Optional query smoke gate: CHECK_QUERY_SMOKE=1 generates an n=10000
# cohort in both file formats and requires the same query expressions
# to print byte-identical tables through every route: fpreport -query
# in-process, off loaded row JSON, streamed off the .fpds shard, and
# fpsurvey slice on both files (make query-smoke). Off by default —
# the engine's determinism and mem/stream parity are pinned in-process
# by the property and golden tests above; this stage additionally
# exercises the built binaries, the expression parser surface, and
# real files.
if [ "${CHECK_QUERY_SMOKE:-0}" = "1" ]; then
	echo "==> make query-smoke"
	make query-smoke
fi

echo "==> all checks passed"
