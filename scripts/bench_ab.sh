#!/usr/bin/env bash
# bench_ab.sh REF PAIRS [workload…] — bench/README.md's "Steadiness"
# procedure as one command: the benchmark built from REF and from the
# working tree, run PAIRS times interleaved, judged by `bench compare`.
#
# REF is extracted with `git archive` into a temporary directory (no
# worktree is registered, nothing is left in .git) and built there; the
# working tree is built as it stands, uncommitted edits included. Pair i
# runs every named workload (default: all four) once per side on seed
# SEED+i−1, so `bench compare` pairs the runs by seed; odd pairs run the
# parent first, even pairs the change, which spreads warm-up and
# neighbour noise over both sides. Each side runs from its own checkout
# root, where its BENCHMARK.json and .bench_build/ live.
#
#   SEED           first pair's seed (default 2006)
#   BENCH_SECONDS  seconds per run (default: run_seconds of BENCHMARK.json)
#   OUT            where parent.jsonl and change.jsonl go
#                  (default .bench_build/ab, emptied first)
set -euo pipefail

if [ "$#" -lt 2 ]; then
	echo "usage: $0 REF PAIRS [workload…]" >&2
	exit 2
fi
ref=$1
pairs=$2
shift 2
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
	workloads=(table1 failover fleet1k serve)
fi
seed0=${SEED:-2006}

root=$(git rev-parse --show-toplevel)
out=${OUT:-$root/.bench_build/ab}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -f "$out/parent.jsonl" "$out/change.jsonl"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./bench)
(cd "$root" && go build -o "$tmp/bench_change" ./bench)

# run SIDE WORKLOAD SEED: one untraced run, appended to SIDE.jsonl.
run() {
	local side=$1 dir=$root
	if [ "$side" = parent ]; then
		dir=$tmp/parent
	fi
	local args=(-workload "$2" -seed "$3" -out "$out/$side.jsonl")
	if [ -n "${BENCH_SECONDS:-}" ]; then
		args+=(-seconds "$BENCH_SECONDS")
	fi
	(cd "$dir" && "$tmp/bench_$side" "${args[@]}" | tail -n 1 | cut -c1-160)
}

for ((i = 1; i <= pairs; i++)); do
	seed=$((seed0 + i - 1))
	order=(parent change)
	if ((i % 2 == 0)); then
		order=(change parent)
	fi
	for w in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			echo "pair $i/$pairs  $w  seed $seed  $side" >&2
			run "$side" "$w" "$seed" >&2
		done
	done
done

cd "$root"
go run ./bench compare "$out/parent.jsonl" "$out/change.jsonl"
