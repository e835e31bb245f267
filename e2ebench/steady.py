#!/usr/bin/env python3
"""Steadiness report: run each workload N times and summarize the spread.

    python3 e2ebench/steady.py --runs 10 --seconds 22 [--trace 0|1]
                               [--workload NAME ...]

Runs ``run.py`` serially, once per seed 1..runs, and for every metric
prints the median, the quartiles, the spread (interquartile range over
the median) and the drift between the medians of the first and second
half of the runs.  Where ``BENCHMARK.json`` gives a metric a bound, the
spread is compared with it and with a third of it.  With ``--trace 1``
the per-layer metrics are summarized instead; a count that is the same
for every seed shows a spread and drift of zero.  Exits non-zero when a
run fails, reports a failed check, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def _bounds() -> dict:
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            *("--workload", workload, "--seed", str(seed)),
            *("--seconds", str(seconds), "--trace", str(trace)),
        ],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - t0


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / base
    return 0.0 if delta == 0 else float("inf")


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    first, second = statistics.median(values[:half]), statistics.median(values[half:])
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": _relative(q3 - q1, q2),
        "drift": _relative(second - first, first),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("--runs must be at least 4 (two per half)")
    bounds = _bounds()
    ok = True
    for workload in args.workload or list(WORKLOADS):
        runs, walls = [], []
        for seed in range(1, args.runs + 1):
            result, wall = one_run(workload, seed, args.seconds, args.trace)
            runs.append(result)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
        print(
            f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, "
            f"{statistics.median(walls):.1f} s per run (max {max(walls):.1f} s)"
        )
        print(
            f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'spread':>7} {'drift':>7} {'bound/3':>7}"
        )
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"{bound / 3:>7.1%}"
                if s["spread"] > bound:
                    ok, flag = False, flag + " SPREAD > BOUND"
                elif s["spread"] > bound / 3:
                    flag += " above bound/3"
            print(
                f"  {name:<34} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                f"{s['spread']:>7.1%} {s['drift']:>+7.1%} {flag}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
