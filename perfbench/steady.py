#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload N times through perfbench/run.py, rotating the workload
order each round, with one seed per round (or one fixed seed with
--same-seed), and prints for each metric its median, quartiles, min/max and
the quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of its bound is flagged.

    python3 perfbench/steady.py --runs 10                 # seeds 1..10
    python3 perfbench/steady.py --runs 5 --seed-base 100 --workloads real_churn
    python3 perfbench/steady.py --runs 3 --same-seed 7    # repeatability
    python3 perfbench/steady.py --runs 10 --compare first.json

--compare takes the --json output of an earlier set and reports, per metric,
how far this set's median is worse than that set's, against the bound.

With --same-seed the simulated workloads must show zero spread on every
metric except the host-time ones (req_per_s, setup_s, peak_rss_mb).
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns the parsed result line (or None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4), min, max, spread."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, min(values), max(values), spread


def main(argv):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1,
                        help="round r uses seed seed-base + r")
    parser.add_argument("--same-seed", type=int, default=None,
                        help="use this seed in every round")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="also write the raw values here")
    parser.add_argument("--compare", help="--json output of an earlier set")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            earlier = json.load(f)

    values = {w: {} for w in workloads}
    failures = []
    for r in range(args.runs):
        seed = (args.same_seed if args.same_seed is not None
                else args.seed_base + r)
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            result = run_once(w, seed, args.seconds, args.trace)
            if result is None or not result["correct"] or result["failed"]:
                failures.append((w, seed))
                print(f"run {r} {w} seed {seed}: FAILED", flush=True)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {r} {w} seed {seed}: ok", flush=True)

    flagged = 0
    for w in workloads:
        print(f"\n{w}  ({len(next(iter(values[w].values()), []))} runs)")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'min':>14}{'max':>14}{'spread':>9}{'bound':>7}"
              f"{'worse':>8}")
        for name, vals in values[w].items():
            med, q1, q3, lo, hi, spread = summarize(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                flagged += 1
            worse = ""
            old = earlier.get(w, {}).get(name)
            if old and bound is not None:
                old_med = statistics.median(old)
                change = (med - old_med) / abs(old_med) if old_med else 0.0
                worse_by = change if lower_is_better[name] else -change
                worse = f"{worse_by:>8.4f}"
                if worse_by > bound:
                    flag += "  <-- median worse than the earlier set's"
                    flagged += 1
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{lo:>14.6g}{hi:>14.6g}{spread:>9.4f}"
                  f"{'' if bound is None else bound:>7}{worse}{flag}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(values, f, indent=1)
    print(f"\n{len(failures)} failed runs, {flagged} flags")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
