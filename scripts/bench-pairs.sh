#!/usr/bin/env bash
# Compares a base revision with HEAD on one perfbench workload over
# alternating pairs of runs:
#
#	bash scripts/bench-pairs.sh <base-rev> <workload> <first-seed> <pairs>
#
# It exports both commits with git archive under .bench_build/pairs/
# (one directory per commit, kept for the next call, so each side's Go
# build cache is reused) and runs
#
#	bash perfbench/run.sh --workload W --seed S --seconds 30 --trace 0
#
# in each, at seeds first-seed .. first-seed+pairs-1.  Pair i runs the
# base first when i is even and HEAD first when it is odd, so drift in
# the machine's speed falls on both sides alike.  Only committed files
# are measured: commit a change before comparing it.
#
# It fails as soon as a run's last line is not "correct":true.  At the
# end it prints, for each end-to-end metric of BENCHMARK.json, each
# side's median and quartiles (perfbench's nearest-rank quantile) and in
# how many pairs HEAD read lower than the base, then whether the two
# sides printed the same digest lines at each seed.  Run logs land in
# .bench_build/pairs/logs/.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

if [ $# -ne 4 ]; then
	echo "usage: bash scripts/bench-pairs.sh <base-rev> <workload> <first-seed> <pairs>" >&2
	exit 2
fi
base_rev=$1 workload=$2 first=$3 pairs=$4
case "$first$pairs" in
*[!0-9]*) echo "bench-pairs: first-seed and pairs must be non-negative integers" >&2; exit 2 ;;
esac

root=.bench_build/pairs
logs=$root/logs
mkdir -p "$logs"
export_rev() {
	local sha dir
	sha=$(git rev-parse --verify "$1^{commit}")
	dir=$root/$sha
	if [ ! -d "$dir" ]; then
		mkdir -p "$dir.tmp"
		git archive "$sha" | tar -x -C "$dir.tmp"
		mv "$dir.tmp" "$dir"
	fi
	echo "$dir"
}
base_dir=$(export_rev "$base_rev")
head_dir=$(export_rev HEAD)
echo "bench-pairs: $workload, base $(basename "$base_dir") vs HEAD $(basename "$head_dir"), seeds $first-$((first + pairs - 1))"

run() { # side dir seed
	local log=$logs/$workload-$1-seed$3.txt
	if ! (cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds 30 --trace 0) >"$log"; then
		echo "bench-pairs: seed $3 $1: perfbench failed (see $log)" >&2
		exit 1
	fi
	case "$(tail -n 1 "$log")" in
	*'"correct":true'*) echo "bench-pairs: seed $3 $1 ok" ;;
	*) echo "bench-pairs: seed $3 $1: last line is not \"correct\":true (see $log)" >&2; exit 1 ;;
	esac
}
for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		run base "$base_dir" "$seed"
		run head "$head_dir" "$seed"
	else
		run head "$head_dir" "$seed"
		run base "$base_dir" "$seed"
	fi
done

python3 - "$logs" "$workload" "$first" "$pairs" <<'EOF'
import json, math, sys

logs, workload, first, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
seeds = range(first, first + pairs)

def quantile(xs, q):
    # perfbench's nearest-rank quantile (perfbench/stats.go).
    s = sorted(xs)
    return s[max(math.ceil(q * len(s)) - 1, 0)]

def read(side, seed):
    with open(f"{logs}/{workload}-{side}-seed{seed}.txt") as f:
        lines = f.read().splitlines()
    return json.loads(lines[-1])["metrics"], [l for l in lines if l.startswith("digest ")]

runs = {(side, s): read(side, s) for side in ("base", "head") for s in seeds}
print(f"{'metric':<24} {'base median (q1-q3)':>28} {'HEAD median (q1-q3)':>28} {'change':>8}  lower")
for m in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name = m["name"]
    b = [runs["base", s][0][name]["value"] for s in seeds]
    h = [runs["head", s][0][name]["value"] for s in seeds]
    bm, hm = quantile(b, 0.5), quantile(h, 0.5)
    change = f"{(hm - bm) / bm * 100:+.1f}%" if bm else "-"
    lower = sum(y < x for x, y in zip(b, h))
    spread = lambda xs, med: f"{med:.4g} ({quantile(xs, 0.25):.4g}-{quantile(xs, 0.75):.4g})"
    print(f"{name:<24} {spread(b, bm):>28} {spread(h, hm):>28} {change:>8}  {lower}/{pairs} ({m['better']} is better)")
same = 0
for s in seeds:
    match = runs["base", s][1] == runs["head", s][1]
    same += match
    print(f"digest seed {s}: {'match' if match else 'DIFFER'}")
print(f"digests match at {same}/{pairs} seeds")
EOF
