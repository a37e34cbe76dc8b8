"""Steadiness of the benchmark: two interleaved sets of runs of one commit.

Usage::

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds S]

For each workload it makes ``--runs`` runs per set, alternating set A and
set B run by run, each run with its own seed (set A seeds 1..N, set B seeds
101..100+N).  It prints, per end-to-end metric, each set's median and its
interquartile range as a share of the median (``statistics.quantiles(n=4)``),
and whether the sets agree within the bounds of ``BENCHMARK.json``: every
spread except ``setup_s`` within its bound, the second median no worse than
the first by more than the bound, and the same share of failed operations.
These figures are where the bounds in ``BENCHMARK.json`` come from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    results = {w: {"A": [], "B": []} for w in workloads}
    for index in range(args.runs):
        for label, seed in (("A", 1 + index), ("B", 101 + index)):
            for workload in workloads:
                result = one_run(workload, seed, args.seconds)
                results[workload][label].append(result)
                print(
                    f"run {index} set {label} {workload} seed {seed}: correct="
                    f"{result['correct']} failed={result['failed']}/{result['attempted']} "
                    f"in {result['elapsed_s']:.1f} s",
                    file=sys.stderr,
                    flush=True,
                )
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    agree = True
    for workload in workloads:
        print(f"== {workload}")
        sets = results[workload]
        shares = {
            label: [r["failed"] / r["attempted"] for r in runs]
            for label, runs in sets.items()
        }
        if sorted(shares["A"]) != sorted(shares["B"]):
            agree = False
            print(f"  failed shares differ: {shares}")
        if not all(r["correct"] for runs in sets.values() for r in runs):
            agree = False
            print("  a run reported correct=false")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            drift = (med_b - med_a) / med_a
            worse = -drift if metric["better"] == "higher" else drift
            ok = worse <= bound and (
                name == "setup_s" or (spread_a <= bound and spread_b <= bound)
            )
            agree &= ok
            print(
                f"  {name:18s} A {med_a:12.4f} iqr {spread_a:6.3f} | "
                f"B {med_b:12.4f} iqr {spread_b:6.3f} | drift {drift:+.3f} "
                f"bound {bound} {'ok' if ok else 'OUT'}"
            )
    print("sets agree within bounds" if agree else "sets DO NOT agree within bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
