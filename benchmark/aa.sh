#!/usr/bin/env bash
# A/A check: run the untraced suite twice on the same commit and seed and
# compare every {metric, workload} with the bounds in BENCHMARK.json
# (counts, recall and digests must agree exactly), then once more on a
# second seed and a second corpus to show the numbers are not specific to
# one of either.
#
#   benchmark/aa.sh [seed] [second-seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
other=${2:-2}
out=benchmark/out/aa
mkdir -p "$out"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    for run in "a $seed" "b $seed" "c $other --corpus-seed $other"; do
        set -- $run
        echo "aa: $w run $1 seed $2 ${3:-} ${4:-}" >&2
        bash benchmark/run.sh --workload "$w" --seed "$2" --seconds "$seconds" --trace 0 \
            ${3:-} ${4:-} > "$out/$w.$1.txt"
    done
done
python3 - "$out" <<'PY'
import json, sys, pathlib
out = pathlib.Path(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
EXACT = {"recall", "hops_per_op", "messages_per_op", "bytes_per_op"}

def load(path):
    lines = path.read_text().splitlines()
    digests = {l.split()[0]: l.split()[1] for l in (l.strip() for l in lines) if l.startswith("digest_")}
    digests["result_digest"] = next(l.split("result_digest ")[1] for l in lines if "result_digest" in l)
    return json.loads(lines[-1]), digests

ok = True
print(f"{'workload':<14} {'metric':<18} {'run a':>14} {'run b':>14} {'worse by':>9} {'bound':>6}  {'verdict':<7} {'other seed+corpus':>17}")
results = {}
for w in (w["name"] for w in spec["workloads"]):
    (a, da), (b, db), (c, dc) = (load(out / f"{w}.{r}.txt") for r in "abc")
    results[w] = (da, dc)
    for m in spec["end_to_end"]:
        name = m["name"]
        va, vb, vc = (r["metrics"][name]["value"] for r in (a, b, c))
        if name in EXACT:
            worse, bound, good = (0.0 if va == vb else float("inf")), "exact", va == vb
        else:
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            bound, good = m["bound"], worse <= m["bound"]
        ok &= good
        print(f"{w:<14} {name:<18} {va:>14.6g} {vb:>14.6g} {worse:>9.4f} {bound!s:>6}  {'PASS' if good else 'FAIL':<7} {vc:>14.6g}")
    good = da == db and all(r["correct"] and r["failed"] == 0 for r in (a, b, c))
    ok &= good
    print(f"{w:<14} {'result_digest':<18} {da['result_digest']:>14} {db['result_digest']:>14} {'':>9} {'exact':>6}  {'PASS' if good else 'FAIL':<7} {dc['result_digest']:>14}")
# tcp_query replays the head of range_narrow: same item sets, same digest.
for i, which in enumerate(("seed a", "other seed")):
    narrow = results["range_narrow"][i]
    head = next(v for k, v in narrow.items() if k.startswith("digest_first_"))
    good = head == results["tcp_query"][i]["result_digest"]
    ok &= good
    print(f"tcp_query vs range_narrow head ({which}): {'PASS' if good else 'FAIL'}")
print("A/A:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
