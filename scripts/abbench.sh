#!/usr/bin/env bash
# Alternating micro-benchmark runs: a base revision against the working
# tree.
#
#   scripts/abbench.sh BASE_REV PKG BENCH_REGEX [RUNS]
#   make abbench BASE=HEAD~1 PKG=. BENCH='^BenchmarkAblation' RUNS=6
#
# BASE_REV is exported with `git archive` into a temporary directory,
# removed on exit. Each side's package PKG is built once with
# `go test -c`, and the two binaries run RUNS times (default 6) each
# with
#
#   -test.run '^$' -test.bench BENCH_REGEX -test.benchmem -test.timeout 30m
#
# from the package's directory in their own tree, flipping which side
# runs first every round, so drift on a shared box lands on both sides
# alike. Run logs go to stderr. The summary on stdout gives, for each
# benchmark, both sides' ns/op median and quartiles, their allocs/op,
# and the rounds each side won (ties count for neither).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/abbench.sh BASE_REV PKG BENCH_REGEX [RUNS]" >&2
	exit 2
fi
base_rev=$1 pkg=$2 regex=$3 runs=${4:-6}

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"
echo "abbench: building $pkg at $base_rev and in the working tree" >&2
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")
go test -c -o "$tmp/change.test" "$pkg"

# run_side SIDE DIR ROUND writes the binary's output to $tmp/SIDE.ROUND.
run_side() {
	local side=$1 dir=$2 round=$3
	echo "abbench: round $round: $side" >&2
	(cd "$dir/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$regex" -test.benchmem -test.timeout 30m) \
		>"$tmp/$side.$round" 2>&1 || {
		echo "abbench: $side round $round failed:" >&2
		cat "$tmp/$side.$round" >&2
		exit 1
	}
}

for round in $(seq 1 "$runs"); do
	if [ $((round % 2)) -eq 1 ]; then
		run_side base "$tmp/base" "$round"
		run_side change "$root" "$round"
	else
		run_side change "$root" "$round"
		run_side base "$tmp/base" "$round"
	fi
done

python3 - "$tmp" "$runs" "$base_rev" "$pkg" <<'EOF'
import re
import statistics
import sys

tmp, runs, base_rev, pkg = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
line = re.compile(r"^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) allocs/op)?")

def num(x):
    return "%.0f" % x if x >= 1000 else "%.4g" % x

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

# series[side][bench] lists (round, ns/op, allocs/op) in round order.
series = {"base": {}, "change": {}}
order = []
for side in series:
    for r in range(1, runs + 1):
        for l in open("%s/%s.%d" % (tmp, side, r)):
            m = line.match(l)
            if not m:
                continue
            name = m.group(1)
            if name not in order:
                order.append(name)
            allocs = float(m.group(3)) if m.group(3) else None
            series[side].setdefault(name, []).append((r, float(m.group(2)), allocs))

print("%s: %s (base) vs working tree (change), %d alternated runs" % (pkg, base_rev, runs))
for name in order:
    b = dict((r, (ns, a)) for r, ns, a in series["base"].get(name, []))
    c = dict((r, (ns, a)) for r, ns, a in series["change"].get(name, []))
    rounds = sorted(set(b) & set(c))
    if not rounds:
        print("  %s: missing from one side" % name)
        continue
    bn = [b[r][0] for r in rounds]
    cn = [c[r][0] for r in rounds]
    bw = sum(1 for x, y in zip(bn, cn) if x < y)
    cw = sum(1 for x, y in zip(bn, cn) if y < x)
    bm, bq1, bq3 = quartiles(bn)
    cm, cq1, cq3 = quartiles(cn)

    def allocs(side):
        xs = sorted(set(side[r][1] for r in rounds if side[r][1] is not None))
        return "-" if not xs else "%g" % xs[0] if len(xs) == 1 else "%g-%g" % (xs[0], xs[-1])

    print("  %s: change/base %.3f, rounds won: base %d, change %d" % (name, cm / bm if bm else float("nan"), bw, cw))
    print("    base   ns/op median %s [q1 %s, q3 %s]  allocs/op %s  runs %s"
          % (num(bm), num(bq1), num(bq3), allocs(b), " ".join(map(num, bn))))
    print("    change ns/op median %s [q1 %s, q3 %s]  allocs/op %s  runs %s"
          % (num(cm), num(cq1), num(cq3), allocs(c), " ".join(map(num, cn))))
EOF
