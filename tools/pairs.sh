#!/usr/bin/env bash
# Alternating pairs of two ccbench builds on one workload.
#
#   tools/pairs.sh PARENT_CCBENCH CHANGE_CCBENCH WORKLOAD PAIRS SEED [SECONDS]
#
# Runs each binary PAIRS times (`--trace 0`, SECONDS long, default
# BENCHMARK.json's run_seconds), alternating which of the two runs first,
# both from the repository root so they share one `benchmark/out/`. A
# run whose last line is not `"correct": true` with `"failed": 0` stops
# the script. Then, for each end-to-end metric of BENCHMARK.json: the
# parent's and the change's medians, the parent's quartile distance, the
# median of the per-pair ratios (change / parent) and the pairs the
# change won. The result lines are kept in a file whose path is printed,
# so batches can be pooled. Uses bash and python3's standard library.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_CCBENCH CHANGE_CCBENCH WORKLOAD PAIRS SEED [SECONDS]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
pairs=$4
seed=$5
seconds=${6:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
log=$(mktemp "${TMPDIR:-/tmp}/pairs-$workload-XXXXXX.jsonl")

cd "$root"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        last=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
        # Refuse a run that is not correct or failed any operation.
        python3 -c '
import json, sys
r = json.loads(sys.argv[1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("refused: %s run %s reads correct=%s failed=%s" % (sys.argv[2], sys.argv[3], r.get("correct"), r.get("failed")))
' "$last" "$side" "$i"
        printf '{"pair": %d, "side": "%s", "result": %s}\n' "$i" "$side" "$last" >>"$log"
        echo "pair $i/$pairs: $side done" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$log" "$workload" <<'PY'
import json, statistics, sys

spec, log, workload = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
runs = [json.loads(line) for line in open(log)]
side = {s: {r["pair"]: r["result"]["metrics"] for r in runs if r["side"] == s}
        for s in ("parent", "change")}
pairs = sorted(side["parent"])

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3

print(f"{workload}: {len(pairs)} pairs, results in {log}")
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
