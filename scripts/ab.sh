#!/usr/bin/env bash
# Alternating perfbench pairs: a base revision against the working tree.
#
#   scripts/ab.sh BASE_REV WORKLOAD SEED...
#   make ab BASE=HEAD~1 WORKLOAD=clean-cold SEEDS="1 2 3"
#
# BASE_REV is exported with `git archive` into a temporary directory,
# removed on exit. For each seed the script runs
#
#   bash perfbench/run.sh --workload WORKLOAD --seed SEED --seconds 30 --trace 0
#
# once in that tree and once in the working tree, flipping which side
# runs first on every seed, so drift on a shared box lands on both
# sides alike. Each tree builds its own binaries under its own
# .bench_build/. Run logs go to stderr. The summary on stdout gives,
# for each contract metric of BENCHMARK.json, both sides' median and
# quartiles and the pairs each side won (ties count for neither), and
# flags every run that is not correct, has failed operations, or
# printed no result.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: scripts/ab.sh BASE_REV WORKLOAD SEED..." >&2
	exit 2
fi
base_rev=$1 workload=$2
shift 2

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"
results="$tmp/results.jsonl"
: >"$results"

# run_side SIDE DIR SEED appends one JSON line to $results: the side,
# the seed and perfbench's result line, or null when the run printed
# none.
run_side() {
	local side=$1 dir=$2 seed=$3 line status=0
	echo "ab: $workload seed $seed: $side" >&2
	line=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 30 --trace 0 | tail -n 1) || status=$?
	if [ "$status" -ne 0 ] || [ -z "$line" ]; then
		echo "ab: $side seed $seed exited $status" >&2
		line=null
	fi
	printf '{"side":"%s","seed":%s,"result":%s}\n' "$side" "$seed" "$line" >>"$results"
}

i=0
for seed in "$@"; do
	if [ $((i % 2)) -eq 0 ]; then
		run_side base "$tmp/base" "$seed"
		run_side change "$root" "$seed"
	else
		run_side change "$root" "$seed"
		run_side base "$tmp/base" "$seed"
	fi
	i=$((i + 1))
done

python3 - "$results" BENCHMARK.json "$base_rev" "$workload" <<'EOF'
import json
import statistics
import sys

results_path, bench_path, base_rev, workload = sys.argv[1:]
runs = [json.loads(l) for l in open(results_path) if l.strip()]
contract = json.load(open(bench_path))["end_to_end"]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

by_side = {"base": {}, "change": {}}
flags = []
for r in runs:
    res = r["result"]
    tag = "%s seed %d" % (r["side"], r["seed"])
    if res is None:
        flags.append(tag + ": no result")
        continue
    if not res.get("correct") or res.get("failed", 0) > 0:
        flags.append("%s: correct=%s, failed %s of %s" % (tag, res.get("correct"), res.get("failed"), res.get("attempted")))
    by_side[r["side"]][r["seed"]] = res["metrics"]

seeds = sorted(set(by_side["base"]) & set(by_side["change"]))
print("%s: %s (base) vs working tree (change), %d pairs of 30-s runs, seeds %s"
      % (workload, base_rev, len(seeds), " ".join(map(str, seeds))))
for m in contract:
    name, unit, lower = m["name"], m["unit"], m["better"] == "lower"
    b = [by_side["base"][s][name]["value"] for s in seeds if name in by_side["base"][s]]
    c = [by_side["change"][s][name]["value"] for s in seeds if name in by_side["change"][s]]
    if not b or len(b) != len(c):
        print("  %s: missing from some runs" % name)
        continue
    bw = sum(1 for x, y in zip(b, c) if (x < y if lower else x > y))
    cw = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
    bm, bq1, bq3 = quartiles(b)
    cm, cq1, cq3 = quartiles(c)
    print("  %s (%s, %s is better, bound %.0f%%): change/base %.3f, pairs won: base %d, change %d"
          % (name, unit, m["better"], 100 * m["bound"], cm / bm if bm else float("nan"), bw, cw))
    print("    base   median %.4g [q1 %.4g, q3 %.4g]  runs %s" % (bm, bq1, bq3, " ".join("%.4g" % x for x in b)))
    print("    change median %.4g [q1 %.4g, q3 %.4g]  runs %s" % (cm, cq1, cq3, " ".join("%.4g" % x for x in c)))
for f in flags:
    print("  FLAG " + f)
EOF
