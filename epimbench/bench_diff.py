#!/usr/bin/env python3
"""Compare two sets of EPIM benchmark runs, metric by metric, against noise.

    python3 epimbench/bench_diff.py BASE.jsonl CHANGE.jsonl [--json OUT]

Each file holds the JSON lines `run.py --runs N --out FILE` appends: one run
per line with its workload, seed, trace flag, correctness, attempted/failed
counts and metrics. Runs of the two sets are paired by (workload, seed).

For every (workload, metric) the report gives each side's median and
quartiles, the share of pairs the change wins (ties count for neither) and
one verdict for end-to-end metrics:

  improved    the change wins >= 9/10 of the pairs and the medians differ,
              in the better direction, by more than the parent's IQR (or
              every change run reads better than every parent run)
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json times the parent's median
  unresolved  the run-to-run spread (the IQR, either side) is wider than
              that same allowance
  worse       within the bound, but worse by the improved rule turned
              around: the change loses >= 9/10 of the pairs and the medians
              differ by more than the parent's IQR. The bound is shared by
              every workload, so it is wider than a steady workload's noise;
              this names a slowdown that such a workload resolves.
  unchanged   none of the above

Per-layer metrics have no bound; they get "better"/"worse" by the same two
rules and "~" otherwise. The share of failed operations and the number of
incorrect runs are compared per workload. Exit status 1 when any end-to-end
pair regressed or is unresolved, when the change fails a larger share of
operations, or when any run was incorrect; else 0.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "n": len(values)}


def pairs(base_runs, change_runs):
    """(base value run, change value run) matched by seed, in seed order."""
    by_seed = defaultdict(list)
    for r in change_runs:
        by_seed[r["seed"]].append(r)
    out = []
    for r in sorted(base_runs, key=lambda r: r["seed"]):
        if by_seed[r["seed"]]:
            out.append((r, by_seed[r["seed"]].pop(0)))
    return out


def compare(name, better, bound, base_runs, change_runs):
    base = [r["metrics"][name]["value"] for r in base_runs
            if name in r["metrics"]]
    change = [r["metrics"][name]["value"] for r in change_runs
              if name in r["metrics"]]
    if not base or not change:
        return None
    sign = 1.0 if better == "higher" else -1.0
    matched = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
               for b, c in pairs(base_runs, change_runs)
               if name in b["metrics"] and name in c["metrics"]]
    wins = sum(1 for b, c in matched if sign * (c - b) > 0)
    win_share = wins / len(matched) if matched else 0.0
    sb, sc = summary(base), summary(change)
    gain = sign * (sc["median"] - sb["median"])  # > 0: change is better
    worst_change = min(change) if sign > 0 else max(change)
    best_base = max(base) if sign > 0 else min(base)
    improved = (win_share >= 0.9 and gain > sb["q3"] - sb["q1"]) or \
        sign * (worst_change - best_base) > 0
    losses = sum(1 for b, c in matched if sign * (c - b) < 0)
    worse = matched and losses / len(matched) >= 0.9 and \
        -gain > sb["q3"] - sb["q1"]
    if bound is None:
        verdict = "better" if improved else "worse" if worse else "~"
    elif improved:
        verdict = "improved"
    else:
        allowed = bound * abs(sb["median"])
        iqr = max(sb["q3"] - sb["q1"], sc["q3"] - sc["q1"])
        verdict = ("regressed" if -gain > allowed else
                   "unresolved" if iqr > allowed else
                   "worse" if worse else "unchanged")
    return {"base": sb, "change": sc,
            "delta": (sc["median"] - sb["median"]) / sb["median"]
            if sb["median"] else 0.0,
            "wins": wins, "pairs": len(matched), "bound": bound,
            "verdict": verdict}


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    ap.add_argument("--json", help="also write the comparison as JSON here")
    args = ap.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    base, change = load_runs(args.base), load_runs(args.change)

    groups = defaultdict(lambda: ([], []))
    for side, runs in ((0, base), (1, change)):
        for r in runs:
            groups[(r["workload"], r["trace"])][side].append(r)

    report, bad = [], False
    print(f"{'workload':13} {'metric':28} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            b_runs, c_runs = groups.get((workload, trace), ([], []))
            if not b_runs or not c_runs:
                continue
            for m in metrics:
                res = compare(m["name"], m["better"], m.get("bound"),
                              b_runs, c_runs)
                if res is None:
                    continue
                bad = bad or res["verdict"] in ("regressed", "unresolved")
                report.append({"workload": workload, "metric": m["name"],
                               "unit": m["unit"], **res})
                sb, sc = res["base"], res["change"]
                print(f"{workload:13} {m['name']:28} "
                      f"{sb['median']:12.5g} [{sb['q1']:9.5g}, "
                      f"{sb['q3']:9.5g}] "
                      f"{sc['median']:12.5g} [{sc['q1']:9.5g}, "
                      f"{sc['q3']:9.5g}] {100 * res['delta']:+7.2f}% "
                      f"{res['wins']:>2}/{res['pairs']:<3}  {res['verdict']}")
            fb, fc = failed_share(b_runs), failed_share(c_runs)
            wrong_b = sum(1 for r in b_runs if not r["correct"])
            wrong_c = sum(1 for r in c_runs if not r["correct"])
            if trace == 0:
                print(f"{workload:13} {'failed share':28} {fb:34.3%} "
                      f"{fc:34.3%}  incorrect runs {wrong_b} -> {wrong_c}")
            bad = bad or fc > fb or wrong_b + wrong_c > 0
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
