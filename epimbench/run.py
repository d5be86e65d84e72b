#!/usr/bin/env python3
"""Build and run the EPIM benchmark.

One workload, in the benchmark's command-line form (the last stdout line is
the result object):

    python3 epimbench/run.py --workload eval-ideal --seed 3 --seconds 10 \
        --trace 0

Every workload, with a table of the end-to-end metrics (and, with --trace 1,
the per-layer profile and each workload's tracing overhead):

    python3 epimbench/run.py --seed 1 [--trace 1]

Sets of runs for epimbench/bench_diff.py: --runs N runs each selected
workload with seeds S..S+N-1 and appends every result to --out as JSON lines
(with the run's `info`: figures as measured, host speed, lateness).

The benchmark package (epimbench/CMakeLists.txt, which builds the epim
library from the repository root) is configured and built under --build
(default .bench_build/epimbench) on first use. Each workload runs in its own
process, so its memory high-water mark is its own.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run is killed (and fails) past this; with one retry a call to run.py
# still ends within 180 s.
RUN_TIMEOUT_S = 80
# bench_epim's exit code for a run whose load generator ran late.
EXIT_INVALID_RUN = 4
MAX_INVALID_RETRIES = 1


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configure (once) and build bench_epim; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: the epim sources (CMakeLists.txt, src/) are not "
                 f"next to {HERE}; cannot build the benchmark")
    steps = [["cmake", "--build", build_dir, "--target", "bench_epim",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=subprocess.DEVNULL).returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "bench_epim")


def run_binary(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload in its own process, echoing its report. A run the
    binary declares invalid (its open-loop generator ran late) is discarded
    and repeated, at most MAX_INVALID_RETRIES times.

    Returns (exit code, parsed RESULT object or None)."""
    for attempt in range(MAX_INVALID_RETRIES + 1):
        code, result = run_once(binary, build_dir, workload, seed, seconds,
                                trace)
        if code != EXIT_INVALID_RUN:
            break
        print(f"run.py: invalid run of {workload} discarded "
              f"(attempt {attempt + 1})", file=sys.stderr)
    return code, result


def run_once(binary, build_dir, workload, seed, seconds, trace):
    work_dir = os.path.join(build_dir, "work", f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def golden_mismatches(result, golden, seed):
    """Observed golden values that differ from the pinned ones."""
    pinned = dict(golden["every_seed"].get(result["workload"], {}))
    if seed == golden["seed"]:
        pinned.update(golden["default_seed"].get(result["workload"], {}))
    observed = result["golden"]
    return [f"{key}: pinned {want!r}, observed {observed.get(key)!r}"
            for key, want in sorted(pinned.items())
            if observed.get(key) != want]


def contract_result(code, result, spec, golden, seed, trace):
    """The result object of one run: correct/attempted/failed/metrics."""
    problems = list(result["failures"])
    problems += golden_mismatches(result, golden, seed)
    source = result["layers"] if trace else result["e2e"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in source:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {"correct": code == 0 and not problems,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def print_table(title, names, units, rows):
    """rows: {workload: {metric: value}}"""
    workloads = list(rows)
    print(f"\n{title}")
    print(f"{'metric':32} {'unit':8}" +
          "".join(f" {w:>14}" for w in workloads))
    for name in names:
        cells = "".join(
            f" {rows[w][name]:>14.6g}" if name in rows[w] else f" {'-':>14}"
            for w in workloads)
        print(f"{name:32} {units[name]:8}{cells}")


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    golden = load_json(os.path.join(HERE, "golden.json"))
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=golden["seed"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--build", default=os.path.join(ROOT, ".bench_build",
                                                    "epimbench"),
                    help="build directory of the benchmark package")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds SEED..SEED+RUNS-1")
    ap.add_argument("--out", help="append each run's result as a JSON line")
    args = ap.parse_args()

    binary = build(os.path.abspath(args.build))
    selected = [args.workload] if args.workload else workloads
    single = args.workload is not None and args.runs == 1
    all_correct = True
    e2e_rows, layer_rows, overhead = {}, {}, {}
    for i in range(args.runs):
        seed = args.seed + i
        for workload in selected:
            traces = [args.trace] if single or not args.trace else [0, 1]
            for trace in traces:
                code, result = run_binary(binary, os.path.abspath(args.build),
                                          workload, seed, args.seconds, trace)
                if result is None:
                    print(f"run.py: {workload} (seed {seed}, trace {trace}) "
                          f"exited {code} without a result", file=sys.stderr)
                    return code or 1
                out = contract_result(code, result, spec, golden, seed, trace)
                all_correct = all_correct and out["correct"]
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as f:
                        f.write(json.dumps({"workload": workload, "seed": seed,
                                            "trace": trace, **out,
                                            "info": result["info"]}) + "\n")
                if single:
                    print(json.dumps(out))
                    return 0 if out["correct"] else 1
                rows = layer_rows if trace else e2e_rows
                rows[workload] = {k: v["value"]
                                  for k, v in out["metrics"].items()}
                if trace:
                    # Traced vs untraced throughput, same seed and length.
                    overhead[workload] = (result["e2e"]["ops_per_s"] /
                                          e2e_rows[workload]["ops_per_s"])

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print_table("end-to-end (last seed)",
                [m["name"] for m in spec["end_to_end"]], units, e2e_rows)
    if layer_rows:
        print_table("per-layer profile (last seed)",
                    [m["name"] for m in spec["per_layer"]], units, layer_rows)
        print("\ntracing overhead, ops_per_s traced / untraced:")
        for w, o in overhead.items():
            print(f"  {w:14} x{o:.3f}")
    print("\nall checks passed" if all_correct else "\nSOME CHECKS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
