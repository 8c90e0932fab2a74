#!/usr/bin/env bash
# bench_ab.sh — the perf-regression gate: runs the repository benchmark
# (perfbench, see BENCHMARK.json) on a base revision and on the working
# tree, in alternating pairs, and judges each end-to-end metric against
# its bound. Run it from anywhere inside the checkout:
#
#   bash scripts/bench_ab.sh <base-rev> <workload>
#
# <base-rev> is checked out into a temporary git worktree. The script
# runs 10 pairs of
#
#   bash perfbench/run.sh --workload W --seed 1 --seconds S --trace 0
#
# on the base worktree and on the current checkout, uncommitted edits
# included; S is BENCHMARK.json's run_seconds, and the side that runs
# first swaps each pair. It then prints `perfbench/run.sh compare` of
# the two sets of records and, for each end-to-end metric the workload
# reports, the median [q1, q3] of each side and a verdict:
#
#   ok          the runs spread less than the metric's bound and the
#               working tree's median is no worse than the base's by
#               more than the bound, or every run of the working tree
#               reads better than every run of the base
#   REGRESSION  the working tree's median is worse by more than the
#               bound, and the runs spread less than the bound or every
#               run of the working tree reads worse than every base run
#   unresolved  otherwise: a side's interquartile range, relative to
#               its median, is wider than the bound and the runs overlap
#
# Exit status: 0 when every metric is ok or unresolved; 1 on any
# REGRESSION, any perfbench run that exits nonzero, or any record with
# failed > 0; 2 on a usage or setup error. The worktree and the
# collected records live in a temporary directory removed on exit, so
# the script writes no tracked file. Each side's build cache stays in
# its ignored .bench_build/.
set -u

pairs=10
seed=1

usage() {
	echo "usage: bash scripts/bench_ab.sh <base-rev> <workload>" >&2
	exit 2
}
[ $# -eq 2 ] || usage
base_rev=$1
workload=$2

repo=$(cd "$(dirname "$0")/.." && pwd) || exit 2
cd "$repo" || exit 2
command -v jq >/dev/null || { echo "bench_ab: jq is required" >&2; exit 2; }
bench=$repo/BENCHMARK.json
seconds=$(jq -er '.run_seconds' "$bench") || { echo "bench_ab: no run_seconds in $bench" >&2; exit 2; }
if ! jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$bench" >/dev/null; then
	echo "bench_ab: unknown workload $workload; BENCHMARK.json lists:" $(jq -r '.workloads[].name' "$bench") >&2
	exit 2
fi
rev=$(git rev-parse --verify --quiet "$base_rev^{commit}") || { echo "bench_ab: $base_rev is not a commit" >&2; exit 2; }

tmp=$(mktemp -d) || exit 2
cleanup() {
	git -C "$repo" worktree remove --force "$tmp/base" >/dev/null 2>&1
	git -C "$repo" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 2' HUP INT TERM
git worktree add --detach --quiet "$tmp/base" "$rev" || exit 2

status=0

# run_side <base|new> <dir> <label>: one perfbench run in <dir>; its
# record is appended to $tmp/<side>.jsonl.
run_side() {
	local side=$1 dir=$2 label=$3
	local results=$dir/.bench_build/perfbench/results.jsonl
	local before=0
	[ -f "$results" ] && before=$(wc -l <"$results")
	if (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$tmp/run.log" 2>&1; then
		tail -n +"$((before + 1))" "$results" >>"$tmp/$side.jsonl"
		echo "bench_ab: $label $side: $(tail -n 1 "$tmp/$side.jsonl" |
			jq -r '"wall_s \(.result.metrics.wall_s.value), \(.result.failed) of \(.result.attempted) failed"')"
	else
		echo "bench_ab: $label $side: perfbench exited nonzero:" >&2
		tail -n 20 "$tmp/run.log" >&2
		status=1
	fi
}

echo "bench_ab: $workload, base $base_rev ($rev) vs the working tree, $pairs pairs of ${seconds}s runs"
: >"$tmp/base.jsonl"
: >"$tmp/new.jsonl"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run_side base "$tmp/base" "pair $i/$pairs"
		run_side new "$repo" "pair $i/$pairs"
	else
		run_side new "$repo" "pair $i/$pairs"
		run_side base "$tmp/base" "pair $i/$pairs"
	fi
done

echo
bash perfbench/run.sh compare "$tmp/base.jsonl" "$tmp/new.jsonl" || status=1
echo

failed=$(jq -s '[.[] | select(.result.failed > 0)] | length' "$tmp/base.jsonl" "$tmp/new.jsonl")
if [ "$failed" -gt 0 ]; then
	echo "bench_ab: $failed record(s) with failed checks" >&2
	status=1
fi

# One tab-separated row per end-to-end metric the workload reports:
# name, unit, bound, base median/q1/q3, new median/q1/q3, change, runs
# per side, verdict.
rows=$(jq -nr --slurpfile base "$tmp/base.jsonl" --slurpfile new "$tmp/new.jsonl" \
	--slurpfile bench "$bench" '
	# Linearly interpolated quantile of an array of numbers.
	def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $i
		| if $i + 1 < $n then $s[$i] + ($h - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
	def rel($x; $ref): if $x == $ref then 0 elif $ref == 0 then ($x - $ref) / ($x | fabs)
		else ($x - $ref) / ($ref | fabs) end;
	def spread: if q(0.5) == 0 then 0 else (q(0.75) - q(0.25)) / (q(0.5) | fabs) end;
	$bench[0].end_to_end[] as $m
	| [$base[] | .result.metrics[$m.name].value | numbers] as $b
	| [$new[] | .result.metrics[$m.name].value | numbers] as $c
	| select(($b | length) > 0 and ($c | length) > 0)
	| rel($c | q(0.5); $b | q(0.5)) as $change
	| (if $m.better == "higher" then -$change else $change end) as $worse
	| (if $m.better == "higher" then ($c | min) > ($b | max) else ($c | max) < ($b | min) end) as $allbetter
	| (if $m.better == "higher" then ($c | max) < ($b | min) else ($c | min) > ($b | max) end) as $allworse
	| (if ([($b | spread), ($c | spread)] | max) > $m.bound then
			(if $allbetter then "ok" elif $allworse and $worse > $m.bound then "REGRESSION" else "unresolved" end)
		elif $worse > $m.bound then "REGRESSION" else "ok" end) as $verdict
	| [$m.name, $m.unit, 100 * $m.bound, ($b | q(0.5), q(0.25), q(0.75)), ($c | q(0.5), q(0.25), q(0.75)),
		100 * $change, ($b | length), ($c | length), $verdict] | @tsv
	') || exit 2
if [ -z "$rows" ]; then
	echo "bench_ab: no end-to-end metric has runs on both sides" >&2
	exit 1
fi
printf '%-18s %-5s %-40s %-40s %8s  %s\n' metric unit "base median [q1, q3]" "new median [q1, q3]" change verdict
regressions=
while IFS=$'\t' read -r name unit bound bm b1 b3 nm n1 n3 change nb nn verdict; do
	printf '%-18s %-5s %-40s %-40s %+7.1f%%  %s (bound %g%%, %d/%d runs)\n' "$name" "$unit" \
		"$(printf '%.6g [%.6g, %.6g]' "$bm" "$b1" "$b3")" "$(printf '%.6g [%.6g, %.6g]' "$nm" "$n1" "$n3")" \
		"$change" "$verdict" "$bound" "$nb" "$nn"
	[ "$verdict" = REGRESSION ] && regressions="$regressions $name"
done <<<"$rows"
if [ -n "$regressions" ]; then
	echo "bench_ab: REGRESSION in$regressions" >&2
	status=1
fi
[ "$status" -eq 0 ] && echo "bench_ab: ok"
exit "$status"
