#!/usr/bin/env python3
"""Compare two sets of apc-perfbench runs.

Usage:
    python3 perfbench/compare.py BEFORE.log AFTER.log

Each log is the standard output of one or more runs appended together,
for example

    for s in 1 2 3 4 5 6 7 8 9 10; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload net_rpc --seed $s --seconds 10 --trace 0 >> before.log
    done

For every workload, trace state and metric it prints each side's median
and quartiles, and "no difference" when the two quartile ranges overlap.
Exact simulated counts ("# model" lines) of runs with the same workload
and seed are compared separately: any difference is reported as a model
change, not a timing change.

It refuses (exit code 2) to compare runs whose host headers differ in
anything but the revision and the seed.
"""

import json
import statistics
import sys
from pathlib import Path

# Header fields that may differ between runs being compared; the rest
# describe the host and build and must match.
RUN_FIELDS = {"git_rev", "seed", "workload", "trace", "seconds"}
# Fewest runs per side for a verdict; quartiles of fewer say nothing.
MIN_RUNS = 3
# Steal share above which timings are flagged as taken on a busy host.
STEAL_WARN = 0.02


def parse(path):
    """Returns a list of runs: {"header", "models", "result"}."""
    runs, current = [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# host "):
            current = {"header": json.loads(line[len("# host "):]), "models": {}, "result": None, "steal": 0.0}
            runs.append(current)
        elif current is None:
            continue
        elif line.startswith("# model "):
            _, _, workload, *fields = line.split(" ")
            current["models"][workload] = dict(f.split("=", 1) for f in fields if f)
        elif line.startswith("# steal_frac "):
            current["steal"] = float(line.split()[2])
        elif line.startswith("{"):
            current["result"] = json.loads(line)
    return [r for r in runs if r["result"] is not None]


def directions():
    """Metric name -> "higher"/"lower" from BENCHMARK.json, when present."""
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.exists():
        return {}
    data = json.loads(spec.read_text())
    return {m["name"]: m["better"] for m in data.get("end_to_end", []) + data.get("per_layer", [])}


def summary(values):
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    return values[0], values[0], values[0]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sides = [parse(argv[1]), parse(argv[2])]
    if not sides[0] or not sides[1]:
        print("compare: each log needs at least one complete run", file=sys.stderr)
        return 2

    host = lambda h: {k: v for k, v in h.items() if k not in RUN_FIELDS}
    reference = host(sides[0][0]["header"])
    groups = {}
    for side, runs in enumerate(sides):
        for run in runs:
            h = run["header"]
            if host(h) != reference:
                diff = {k: (reference.get(k), v) for k, v in host(h).items() if v != reference.get(k)}
                print(f"compare: refusing, host headers differ: {diff}", file=sys.stderr)
                return 2
            key = (h["workload"], h["trace"], h["seconds"])
            groups.setdefault(key, ([], []))[side].append(run)

    better = directions()
    for (workload, trace, seconds), (before, after) in sorted(groups.items()):
        print(f"== {workload} trace={trace} seconds={seconds}: {len(before)} vs {len(after)} runs")
        if not before or not after:
            print("   (runs on one side only; nothing to compare)")
            continue
        steal = [statistics.median(r["steal"] for r in side) for side in (before, after)]
        print(f"   hypervisor steal, median share of CPU time: {steal[0]:.3f} -> {steal[1]:.3f}")
        if max(steal) > STEAL_WARN:
            print("   WARNING: timings were taken while the hypervisor stole CPU; rerun when steal is near 0")
        names = list(before[0]["result"]["metrics"])
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in before if name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in after if name in r["result"]["metrics"]]
            if not a or not b:
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
            if min(len(a), len(b)) < MIN_RUNS:
                verdict = f"(fewer than {MIN_RUNS} runs a side)"
            elif a1 <= b3 and b1 <= a3:
                verdict = "no difference"
            elif name in better:
                improved = (mb > ma) == (better[name] == "higher")
                verdict = "better" if improved else "WORSE"
            else:
                verdict = "higher" if mb > ma else "lower"
            ratio = f"{mb / ma:.3f}x" if ma else "n/a"
            unit = before[0]["result"]["metrics"][name]["unit"]
            print(f"   {name:42s} {ma:12.6g} [{a1:.4g}, {a3:.4g}] -> {mb:12.6g} [{b1:.4g}, {b3:.4g}] {unit:6s} {ratio:>8s}  {verdict}")

        model_changes, compared = [], 0
        seeds_a = {r["header"]["seed"]: r for r in before}
        for run in after:
            other = seeds_a.get(run["header"]["seed"])
            if other is None:
                continue
            compared += 1
            for w, fields in run["models"].items():
                old = other["models"].get(w, {})
                for k in sorted(set(fields) | set(old)):
                    if fields.get(k) != old.get(k):
                        model_changes.append(f"{w} seed={run['header']['seed']} {k}: {old.get(k)} -> {fields.get(k)}")
        if model_changes:
            print("   MODEL CHANGE (simulated counts differ for the same inputs):")
            for c in model_changes:
                print(f"     {c}")
        elif compared:
            print(f"   model counts identical on {compared} shared seed(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
