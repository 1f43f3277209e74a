#!/bin/sh
# Paired comparison of two builds of the end-to-end benchmark: alternated
# runs on the same seeds, and a verdict per end-to-end metric against the
# bounds in BENCHMARK.json.
#
# Usage: scripts/bench_pairs.sh [--emit PARENT_REV CHANGE_REV] PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=7] [SECONDS=20]
#
# PARENT_BIN and CHANGE_BIN are `tvs-benchmark` executables built from the
# two commits' `benchmark/` (`cargo build --release --manifest-path
# benchmark/Cargo.toml`, then copy `benchmark/target/release/tvs-benchmark`
# out). Pair i (0-based) runs seed SEED+i on both, the parent first on even
# pairs and the change first on odd ones; each run is
# `BIN --workload WORKLOAD --seed S --seconds SECONDS --trace 0`, and its
# last line of standard output (the result as JSON) is kept.
#
# Prints every run, then one row per end-to-end metric of BENCHMARK.json:
# the parent's median and quartiles, the change's median, the pairs the
# change won (ties count for neither side), the change of the median in
# percent, the metric's bound and a verdict:
#
#   gain          the change won at least 9 of 10 pairs and its median is
#                 better by more than the parent's interquartile distance
#   unresolved    otherwise, when the parent's interquartile distance is
#                 wider than the bound (as a share of its median)
#   WORSE         otherwise, when the change's median is worse than the
#                 parent's by more than the bound
#   within bound  otherwise
#
# and the failed share of operations on each side. With `--emit`, one JSON
# line follows — the perf-record row `BENCH_e2e.json` keeps, one per
# workload: `workload`, `pairs`, `seconds`, `seeds` ([first, last]), `nproc`,
# `parent` and `change` (the PARENT_REV and CHANGE_REV given: the commits
# the two binaries were built from), `failed` (failed operations per side)
# and `metrics`, which maps every end-to-end metric of BENCHMARK.json to
# `{"unit", "better", "parent": {"median", "q1", "q3"}, "change": {...}}`
# (null for a side with no run). Runs that exit non-zero,
# print no result or report a failed operation are flagged FAILED, and the
# script then exits 1; the verdicts do not set the exit status. The script
# writes no file (each binary keeps its own scratch under the `benchmark/out`
# it was built in).
set -eu
if [ "$#" -lt 3 ]; then
    sed -n 's/^# \(Usage: .*\)/\1/p' "$0" >&2
    exit 2
fi
BENCHMARK_JSON="$(dirname "$0")/../BENCHMARK.json" exec python3 - "$@" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

args = sys.argv[1:]
emit = None
if args[:1] == ["--emit"]:
    if len(args) < 6:
        sys.exit("--emit takes PARENT_REV CHANGE_REV before the binaries")
    emit, args = {"parent": args[1], "change": args[2]}, args[3:]
parent, change, workload = args[:3]
pairs = int(args[3]) if len(args) > 3 else 10
seed = int(args[4]) if len(args) > 4 else 7
seconds = args[5] if len(args) > 5 else "20"
with open(os.environ["BENCHMARK_JSON"]) as f:
    metrics = json.load(f)["end_to_end"]


def run(binary, s):
    cmd = [binary, "--workload", workload, "--seed", str(s),
           "--seconds", seconds, "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in p.stdout.splitlines() if line.strip()]
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        r = None
    ok = p.returncode == 0 and r is not None and r["correct"] and r["failed"] == 0
    return ok, r


def quartiles(v):
    v = sorted(v)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


runs = {"parent": [], "change": []}
failed = 0
for i in range(pairs):
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    for side in order:
        ok, r = run(parent if side == "parent" else change, seed + i)
        runs[side].append(r)
        failed += not ok
        vals = ""
        if r is not None:
            vals = " ".join(
                f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                for m in metrics if m["name"] in r["metrics"])
        flag = "ok" if ok else "FAILED"
        print(f"pair {i} seed {seed + i} {side:<6} {flag:<6} {vals}", flush=True)

def side_values(side, name):
    return [r["metrics"][name]["value"] for r in runs[side]
            if r is not None and name in r["metrics"]]


print()
print(f"{workload}: {pairs} pair(s), seeds {seed}..{seed + pairs - 1}, {seconds} s per run")
head = ("metric", "parent_med", "parent_q1", "parent_q3", "change_med", "wins", "delta_%", "bound", "verdict")
print("{:<27} {:>12} {:>12} {:>12} {:>12} {:>7} {:>8} {:>6}  {}".format(*head))
for m in metrics:
    name, bound = m["name"], m["bound"]
    higher = m["better"] == "higher"
    got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
           for p, c in zip(runs["parent"], runs["change"])
           if p is not None and c is not None and name in p["metrics"] and name in c["metrics"]]
    if not got:
        print(f"{name:<27} {'no runs':>12}")
        continue
    pv, cv = [g[0] for g in got], [g[1] for g in got]
    q1, pmed, q3 = quartiles(pv)
    cmed = statistics.median(cv)
    wins = sum((c > p) if higher else (c < p) for p, c in got)
    delta = (cmed - pmed) / abs(pmed) * 100 if pmed else 0.0
    worse_by = ((pmed - cmed) if higher else (cmed - pmed)) / abs(pmed) if pmed else 0.0
    spread = (q3 - q1) / abs(pmed) if pmed else 0.0
    if wins >= 0.9 * len(got) and -worse_by * abs(pmed) > q3 - q1:
        verdict = "gain"
    elif spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "WORSE"
    else:
        verdict = "within bound"
    print(f"{name:<27} {pmed:>12.5g} {q1:>12.5g} {q3:>12.5g} {cmed:>12.5g} "
          f"{wins:>3}/{len(got):<3} {delta:>+8.2f} {bound:>6.3f}  {verdict}")

for side in ("parent", "change"):
    done = [r for r in runs[side] if r is not None]
    attempted = sum(r["attempted"] for r in done)
    bad = sum(r["failed"] for r in done)
    share = bad / attempted if attempted else float("nan")
    print(f"failed share {side}: {bad} of {attempted} operations ({share:.4f})")
if emit is not None:
    row = {"workload": workload, "pairs": pairs, "seconds": float(seconds),
           "seeds": [seed, seed + pairs - 1], "nproc": os.cpu_count(),
           "parent": emit["parent"], "change": emit["change"],
           "failed": {side: sum(r["failed"] for r in runs[side] if r is not None)
                      for side in ("parent", "change")},
           "metrics": {}}
    for m in metrics:
        entry = {"unit": m["unit"], "better": m["better"]}
        for side in ("parent", "change"):
            v = side_values(side, m["name"])
            q1, med, q3 = quartiles(v) if v else (None, None, None)
            entry[side] = None if med is None else {"median": med, "q1": q1, "q3": q3}
        row["metrics"][m["name"]] = entry
    print(json.dumps(row, separators=(",", ":")))
if failed:
    print(f"{failed} run(s) FAILED")
    sys.exit(1)
EOF
