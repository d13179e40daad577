#!/usr/bin/env bash
# Runs the whole set twice with the same seed and compares the two: for
# every (end-to-end metric, workload) pair the relative difference beside
# the bound BENCHMARK.json fixes, and the noise floor (min / median / MAD
# over repetitions) the second run printed. Fails if a pair exceeds its
# bound.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=benchmark/out
mkdir -p "$out"
for round in 1 2; do
    for w in pipe_loopback pipe_udp pipe_churn xbimodal_sim bimodal_live; do
        echo "round $round: $w" >&2
        benchmark/run.sh --workload "$w" --trace 0 "$@" >"$out/repeat_${round}_$w.txt"
    done
done

python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':14} {'metric':16} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}  noise floor of the second run")
for w in (w["name"] for w in manifest["workloads"]):
    runs = []
    for r in (1, 2):
        lines = open(f"{out}/repeat_{r}_{w}.txt").read().splitlines()
        result = json.loads(lines[-1])
        failed |= not result["correct"] or result["failed"] != 0
        noise = {l.split()[1].rstrip(":"): l.split(":", 1)[1].strip() for l in lines if l.startswith("noise ")}
        runs.append((result["metrics"], noise))
    for m in manifest["end_to_end"]:
        a, b = (run[0][m["name"]]["value"] for run in runs)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        over = worse > m["bound"]
        failed |= over
        flag = " EXCEEDS" if over else ""
        print(f"{w:14} {m['name']:16} {a:14.6g} {b:14.6g} {worse:+9.2%} {m['bound']:6.0%}  {runs[1][1].get(m['name'], '')}{flag}")
sys.exit(1 if failed else 0)
PY
