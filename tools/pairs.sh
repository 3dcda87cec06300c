#!/usr/bin/env bash
# Alternating pairs of two ccbench builds on one workload.
#
#   tools/pairs.sh [--trace] PARENT_CCBENCH CHANGE_CCBENCH WORKLOAD PAIRS SEED [SECONDS]
#
# Runs each binary PAIRS times (SECONDS long, default BENCHMARK.json's
# run_seconds), alternating which of the two runs first, both from the
# repository root so they share one `benchmark/out/`.
#
# By default the runs are `--trace 0` at SEED. A run whose last line is
# not `"correct": true` with `"failed": 0` stops the script. Then, for
# each end-to-end metric of BENCHMARK.json: the parent's and the
# change's medians, the parent's quartile distance, the median of the
# per-pair ratios (change / parent) and the pairs the change won.
#
# With --trace the runs are `--trace 1`, pair i at seed SEED + i - 1 on
# both sides. A run that prints `DESIGN POINT MISSED` is counted, not
# stopped at; a run whose `rounds_done=…` line is missing or reads a
# failed op, a wrong byte or a budget overshoot stops the script. Then,
# per side: the runs, the misses, each run's exit code, and each run's
# value of every metric that any miss names.
#
# The result lines are kept in a file whose path is printed, so batches
# can be pooled. Uses bash and python3's standard library.
set -euo pipefail

usage="usage: $0 [--trace] PARENT_CCBENCH CHANGE_CCBENCH WORKLOAD PAIRS SEED [SECONDS]"
trace=0
if [ "${1:-}" = --trace ]; then
    trace=1
    shift
fi
if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    echo "$usage" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
pairs=$4
seed=$5
seconds=${6:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
kind=$([ "$trace" = 1 ] && echo traced || echo pairs)
log=$(mktemp "${TMPDIR:-/tmp}/$kind-$workload-XXXXXX.jsonl")
out=$(mktemp "${TMPDIR:-/tmp}/$kind-run-XXXXXX.txt")
trap 'rm -f "$out"' EXIT

cd "$root"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    run_seed=$seed
    if [ "$trace" = 1 ]; then run_seed=$((seed + i - 1)); fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        code=0
        "$bin" --workload "$workload" --seed "$run_seed" --seconds "$seconds" --trace "$trace" >"$out" || code=$?
        # Refuse a run that failed an op or read a wrong byte; a traced run
        # may also miss a design point, which is only counted.
        python3 - "$out" "$side" "$i" "$run_seed" "$code" "$trace" >>"$log" <<'PY'
import json, re, sys

out, side, pair, seed, code, trace = sys.argv[1:]
lines = open(out).read().splitlines()
where = "%s run %s (seed %s, exit %s)" % (side, pair, seed, code)
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    sys.exit("refused: %s printed no result line" % where)
record = {"pair": int(pair), "side": side, "result": result}
if trace == "1":
    done = [l for l in lines if l.strip().startswith("rounds_done=")]
    if not done:
        sys.exit("refused: %s printed no rounds_done line" % where)
    fields = dict(f.split("=", 1) for f in done[-1].split() if "=" in f)
    if (fields.get("failed"), fields.get("wrong_bytes"), fields.get("over_budget")) != ("0", "0", "false"):
        sys.exit("refused: %s reads %s" % (where, done[-1].strip()))
    missed = [re.match(r"\s*DESIGN POINT MISSED: (\S+)", l) for l in lines]
    record.update(seed=int(seed), exit=int(code), missed=[m.group(1) for m in missed if m])
elif result.get("correct") is not True or result.get("failed") != 0 or code != "0":
    sys.exit("refused: %s reads correct=%s failed=%s" % (where, result.get("correct"), result.get("failed")))
print(json.dumps(record))
PY
        echo "pair $i/$pairs: $side done (exit $code)" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$log" "$workload" "$trace" <<'PY'
import json, statistics, sys

spec, log, workload, trace = sys.argv[1:]
runs = [json.loads(line) for line in open(log)]
print(f"{workload}: {len(runs) // 2} pairs, results in {log}")

if trace == "1":
    named = sorted({m for r in runs for m in r["missed"]})
    for s in ("parent", "change"):
        mine = sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
        misses = sum(1 for r in mine if r["missed"])
        print(f"{s}: {len(mine)} runs, {misses} missed a design point")
        w = max(map(len, named + ["seed"]))
        print(f"  {'seed':<{w}}" + "".join(f"{r['seed']:>8}" for r in mine))
        print(f"  {'exit':<{w}}" + "".join(f"{r['exit']:>8}" for r in mine))
        for m in named:
            print(f"  {m:<{w}}" + "".join(f"{r['result']['metrics'][m]['value']:>8.4g}" for r in mine))
    sys.exit(0)

metrics = json.load(open(spec))["end_to_end"]
side = {s: {r["pair"]: r["result"]["metrics"] for r in runs if r["side"] == s}
        for s in ("parent", "change")}
pairs = sorted(side["parent"])

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3

print(f"{'metric':<28}{'parent':>12}{'change':>12}{'parent IQR':>12}{'pair ratio':>12}{'wins':>8}")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    p = [side["parent"][i][name]["value"] for i in pairs]
    c = [side["change"][i][name]["value"] for i in pairs]
    q1, _, q3 = quartiles(p)
    ratio = statistics.median(b / a if a else float("nan") for a, b in zip(p, c))
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    print(f"{name:<28}{statistics.median(p):>12.4g}{statistics.median(c):>12.4g}"
          f"{q3 - q1:>12.4g}{ratio:>12.4f}{wins:>5}/{len(pairs)}")
PY
