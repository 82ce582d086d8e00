#!/usr/bin/env bash
# Compare two pre-built benchmark binaries by alternating paired runs.
#
#   tools/bench_pairs.sh <parent-checkout> <workload|all> [pairs] [first-seed]
#
# Builds nothing. The parent's binary is taken from
# <parent-checkout>/benchmark/target/release/idivm-benchmark and the
# change's from ./benchmark/target/release/idivm-benchmark (run from the
# repository root); PARENT_BIN / CHANGE_BIN override either, e.g. when
# the two were built with CARGO_TARGET_DIR. Build each side first:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#
# Pair i runs both sides on seed first-seed+i (default 10 pairs from
# seed 1), the parent first on even pairs and the change first on odd
# ones, `--seconds` as BENCHMARK.json's run_seconds, `--trace 0`. Prints,
# per end-to-end metric: each side's median and quartiles, the change of
# the median, and how many pairs the change won (ties count for
# neither), and a verdict from BENCHMARK.json's `bound` for the metric:
#
#   worse       the change's median is worse than the parent's by more
#               than the bound (the script then exits 1 after the table)
#   unresolved  the parent's own interquartile range is wider than the
#               bound, and not every run of the change reads better than
#               every run of the parent: the pairs cannot tell
#   better      >= 9/10 wins and a median shift larger than the parent's
#               interquartile range — the only ground for claiming a gain
#   not moved   none of the above
#
# `accesses_per_event` is a count that repeats exactly for a seed: a
# CPU-only change must leave it equal in every pair. Each pair whose two
# sides disagree prints a `WARNING: accesses_per_event differs ...` line
# and the script exits 1 after the table, as it does on any `worse`.
#
# `all` for the workload runs every workload BENCHMARK.json declares,
# one table each on the same seeds, and exits 1 if any of them did.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,36p' "$0" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$2" = all ]; then
    status=0
    for workload in $(python3 -c 'import json,sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$root/BENCHMARK.json"); do
        "$0" "$1" "$workload" "${@:3}" || status=1
    done
    exit $status
fi
parent_bin=${PARENT_BIN:-$1/benchmark/target/release/idivm-benchmark}
change_bin=${CHANGE_BIN:-$root/benchmark/target/release/idivm-benchmark}
workload=$2
pairs=${3:-10}
first_seed=${4:-1}
for bin in "$parent_bin" "$change_bin"; do
    [ -x "$bin" ] || { echo "bench_pairs: no binary at $bin (build it first)" >&2; exit 2; }
done
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

# The binaries write benchmark/results/ under the CWD: keep it out of both trees.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

run() { # side binary seed
    if ! "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1 >>"$1.jsonl"; then
        echo "bench_pairs: $1 run failed (seed $3)" >&2
        exit 1
    fi
}
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$parent_bin" "$seed"; run change "$change_bin" "$seed"
    else
        run change "$change_bin" "$seed"; run parent "$parent_bin" "$seed"
    fi
    echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

python3 - "$root/BENCHMARK.json" "$workload" "$first_seed" <<'PY'
import json, statistics, sys

manifest, workload, first_seed = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
sides = {s: [json.loads(l) for l in open(f"{s}.jsonl")] for s in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {len(sides['parent'])} pairs")
for side, runs in sides.items():
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"  {side}: {len(bad)} of {len(runs)} runs incorrect or with failed operations")
print(f"  {'metric':<20}{'parent med [q1, q3]':>30}{'change med [q1, q3]':>30}{'median':>9}{'wins':>7}  verdict")
worse = []
for m in manifest["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
    shift = f"{(c2 - p2) / p2 * 100:+.1f}%" if p2 else "n/a"
    num = lambda x: f"{x:.0f}" if abs(x) >= 1000 else f"{x:.1f}" if abs(x) >= 100 else f"{x:.4g}"
    fmt = lambda lo, mid, hi: f"{num(mid)} [{num(lo)}, {num(hi)}]"
    tied = f" ({ties} tied)" if ties else ""
    loss = ((c2 - p2) if lower else (p2 - c2)) / abs(p2) if p2 else 0.0
    apart = max(c) < min(p) if lower else min(c) > max(p)
    if loss > bound:
        verdict = "worse"
        worse.append(name)
    elif p2 and (p3 - p1) / abs(p2) > bound and not apart:
        verdict = "unresolved"
    elif wins >= 0.9 * len(p) and -loss * abs(p2) > p3 - p1:
        verdict = "better"
    else:
        verdict = "not moved"
    print(f"  {name:<20}{fmt(p1, p2, p3):>30}{fmt(c1, c2, c3):>30}{shift:>9}{wins:>4}/{len(p)}  {verdict}{tied}")

count = lambda r: r["metrics"]["accesses_per_event"]["value"]
differing = [i for i, (a, b) in enumerate(zip(sides["parent"], sides["change"])) if count(a) != count(b)]
for i in differing:
    a, b = count(sides["parent"][i]), count(sides["change"][i])
    print(f"WARNING: accesses_per_event differs in pair {i + 1} (seed {first_seed + i}): parent {a!r}, change {b!r}")
for name in worse:
    print(f"WARNING: {name} is worse than the parent by more than its bound")
sys.exit(1 if differing or worse else 0)
PY
