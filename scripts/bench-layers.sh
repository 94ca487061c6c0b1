#!/usr/bin/env bash
# Collects the layer record, BENCH_layers.json: the per-layer metrics of
# perfbench's traced run (--trace 1) with their spread over seeds.  Run
# it from anywhere in the checkout; it takes no flags:
#
#	bash scripts/bench-layers.sh        (or: make bench-layers)
#
# It runs every workload that BENCHMARK.json declares at seeds 1-5, one
# run at a time (about 4 minutes on a 2-core machine), and fails unless
# every run's last line reports "correct":true.  Each run's output is
# kept in .bench_build/layers/.
#
# The record holds, per workload and metric, the unit and the median,
# min, max and count of the five runs, plus the seeds, the CPU count,
# the Go version and the commit it measured.
#
# Before it replaces a committed record, it checks the kernel rows: the
# fresh median of every *.hit_ns and *.miss_ns metric may not exceed
# the committed max, scaled by the machine's speed (fresh over committed
# median cal_ns), by more than 25%.  These rows are wall-clock
# kernelbench.Bench figures whose medians swing by half between
# back-to-back runs, so the check catches gross kernel regressions only;
# perfbench's bounded cycles_per_ref on table7-grid catches finer ones.
# On a breach the script exits non-zero and keeps the committed record.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

logs=.bench_build/layers
mkdir -p "$logs"
seeds="1 2 3 4 5"
commit=$(git describe --always --dirty --abbrev=12)
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
	for s in $seeds; do
		log="$logs/$w-seed$s.txt"
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds 30 --trace 1 >"$log"
		case "$(tail -n 1 "$log")" in
		*'"correct":true'*) echo "bench-layers: $w seed $s ok" ;;
		*) echo "bench-layers: $w seed $s: last line is not \"correct\":true (see $log)" >&2; exit 1 ;;
		esac
	done
done

python3 - "$logs" "$seeds" "$workloads" "$(go env GOVERSION)" "$commit" <<'EOF'
import json, os, re, statistics, sys

logs, seeds, workloads, go_version, commit = sys.argv[1:]
seeds, workloads = [int(s) for s in seeds.split()], workloads.split()
path, tolerance = "BENCH_layers.json", 0.25

record = {
    "description": "perfbench per-layer metrics (bash perfbench/run.sh --workload W --seed S "
                   "--seconds 30 --trace 1), median, min and max over the seeds; "
                   "collected by scripts/bench-layers.sh",
    "seeds": seeds,
    "num_cpu": len(os.sched_getaffinity(0)),
    "go_version": go_version,
    "commit": commit,
    "workloads": {},
}
for w in workloads:
    samples = {}
    for s in seeds:
        with open(f"{logs}/{w}-seed{s}.txt") as f:
            last = f.read().splitlines()[-1]
        for name, m in json.loads(last)["metrics"].items():
            samples.setdefault(name, (m["unit"], []))[1].append(float(m["value"]))
    record["workloads"][w] = {
        name: {"unit": unit, "median": round(statistics.median(vs), 4),
               "min": round(min(vs), 4), "max": round(max(vs), 4), "n": len(vs)}
        for name, (unit, vs) in sorted(samples.items())
    }

breaches = 0
if os.path.exists(path):
    committed = json.load(open(path))["workloads"]
    for w, fresh in record["workloads"].items():
        old = committed.get(w)
        if old is None:
            continue
        scale = fresh["cal_ns"]["median"] / old["cal_ns"]["median"]
        for name, m in fresh.items():
            if not name.endswith((".hit_ns", ".miss_ns")) or name not in old:
                continue
            limit = old[name]["max"] * scale * (1 + tolerance)
            ok = m["median"] <= limit
            breaches += not ok
            print(f"{w:12} {name:18} median {m['median']:8.2f} ns  limit {limit:8.2f} ns  "
                  f"(max {old[name]['max']:.2f} x cal {scale:.3f} x {1 + tolerance:g})  "
                  f"{'ok' if ok else 'REGRESSION'}")
if breaches:
    sys.exit(f"bench-layers: {breaches} kernel median(s) over the limit; {path} left unchanged")

# One line per metric: the innermost lists and objects are written flat.
text = re.sub(r"[\[{][^\[\]{}]*[\]}]", lambda m: json.dumps(json.loads(m.group())), json.dumps(record, indent=2))
tmp = ".bench_build/" + path
with open(tmp, "w") as f:
    f.write(text + "\n")
os.replace(tmp, path)
print(f"bench-layers: wrote {path}")
EOF
