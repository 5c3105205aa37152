#!/usr/bin/env python3
"""Repeat limabench runs and compare them: `benchmark/run.sh repeat ...`.

    repeat.py <limabench binary> <workload|all> --runs N [--seed S] [--seconds T] [--vary-seed]

For each workload it makes two sets of N untraced runs and one set of N traced
runs, each run a fresh process. It prints per metric the median, the
quartiles and the spread (distance between the quartiles as a share of the
median, quartiles as `statistics.quantiles(values, n=4)` gives them), marks
the counters that repeated exactly, and exits non-zero when

  * a run fails or reports a failed op,
  * the two untraced sets disagree on an end-to-end metric by more than that
    metric's bound in BENCHMARK.json (the second median worse than the first),
  * the spread of an end-to-end metric other than `setup_s` exceeds its bound,
  * a counter that must repeat exactly in a single-threaded workload does not.

With `--vary-seed` run i uses seed S+i (what the acceptance check of the
benchmark contract does); otherwise every run uses seed S and exact counters
are checked.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that depend only on the op sequence in the single-threaded workloads
# (`bench.*` counts describe the time-boxed window, not the program).
EXACT_UNITS = {"count", "B"}
MULTI_THREADED = {"serve_zipf"}


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(binary, workload, args, trace):
    seeds = [args.seed + i if args.vary_seed else args.seed for i in range(args.runs)]
    return [run_once(binary, workload, s, args.seconds, trace) for s in seeds]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse(metric, first, second):
    """Share of the first median by which the second is worse."""
    if not first:
        return 0.0
    delta = (second - first) / first
    return delta if metric["better"] == "lower" else -delta


def check_workload(binary, workload, args):
    problems = []
    first = run_set(binary, workload, args, 0)
    second = run_set(binary, workload, args, 0)
    print(f"\n== {workload}: end-to-end, {args.runs} + {args.runs} runs "
          f"({'seeds from' if args.vary_seed else 'seed'} {args.seed}, {args.seconds} s)")
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'median 2':>14}{'spread 2':>9}{'worse by':>10}{'bound':>7}")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = summary([r[name] for r in first])
        b = summary([r[name] for r in second])
        drift = worse(metric, a[0], b[0])
        flag = ""
        if drift > bound:
            flag = "  DISAGREE"
            problems.append(f"{workload}: {name} second median worse by {drift:.3f} > {bound}")
        if name != "setup_s" and max(a[3], b[3]) > bound:
            flag += "  NOISY"
            problems.append(f"{workload}: {name} spread {max(a[3], b[3]):.3f} > {bound}")
        print(f"{name:<16}{a[0]:>14.4f}{a[1]:>14.4f}{a[2]:>14.4f}{a[3]:>9.3f}"
              f"{b[0]:>14.4f}{b[3]:>9.3f}{drift:>10.3f}{bound:>7.2f}{flag}")

    traced = run_set(binary, workload, args, 1)
    print(f"-- {workload}: per-layer, {args.runs} traced runs")
    print(f"{'metric':<36}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}")
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        values = [r[name] for r in traced]
        med, q1, q3, spread = summary(values)
        mark = ""
        if metric["unit"] in EXACT_UNITS and not name.startswith("bench.") and not args.vary_seed:
            if len(set(values)) == 1:
                mark = "  exact"
            elif workload not in MULTI_THREADED:
                mark = "  NOT EXACT"
                problems.append(f"{workload}: counter {name} did not repeat exactly: {values}")
        print(f"{name:<36}{med:>16.4f}{q1:>16.4f}{q3:>16.4f}{spread:>9.3f}{mark}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--runs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--vary-seed", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    args.binary = str(pathlib.Path(args.binary).resolve())
    problems = []
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        problems += check_workload(args.binary, workload, args)
    if problems:
        print("\nFAILED:")
        for p in problems:
            print("  " + p)
        raise SystemExit(1)
    print("\nall sets agree within the bounds of BENCHMARK.json")


if __name__ == "__main__":
    main()
