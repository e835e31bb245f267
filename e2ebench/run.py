#!/usr/bin/env python3
"""End-to-end analyzer benchmark: one run of one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved from this file.  A run

1. generates the workload's inputs from ``--seed`` in a child process
   (trace simulation and signature measurement are not analyzer work);
2. warms up in this process, then measures rounds of the three passes
   (one-shot analyze, Monte-Carlo, diagnose+verify) for ``--seconds``,
   checking every output.  Every timing is rescaled to a reference
   machine speed by a calibration timed around it (calibration.py);
3. times set-up in fresh interpreters, each with an empty sampler-table
   cache, one before each round and the rest after the last, outside
   the ``--seconds`` budget, and reports the median;
4. prints the end-to-end metrics (``--trace 0``) or, from a separate
   set of traced passes, the per-layer metrics and table (``--trace 1``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All scratch
files live under ``.e2ebench-work/`` next to this directory and are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import calibration_s, rescale
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


def _child_env(cache: Path) -> dict:
    """Environment for a child: the repo's sources, a private table cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["REPRO_TABLES_CACHE"] = env["XDG_CACHE_HOME"] = str(cache)
    return env


def _run_child(script: str, args: list, work: Path) -> str:
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        env=_child_env(cache),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"e2ebench: {script} exited with {proc.returncode}")
    return proc.stdout


def setup_probe(inputs: Path, work: Path) -> dict:
    """Time set-up in one fresh interpreter; its calibration is the mean
    of one timed here before the spawn and one in the child after."""
    before = calibration_s()
    t0 = time.monotonic()
    rec = json.loads(_run_child("setup_probe.py", [inputs], work).splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t0
    rec["calibration"] = (before + rec["calibration"]) / 2
    return rec


def end_to_end(wb, rounds: list, probes: list) -> dict:
    """The five user-facing metrics: medians of rescaled samples."""
    reps = wb.bench.workload.mc_replicates
    walls = {
        "setup_s": [(p["setup_s"], p["calibration"]) for p in probes],
        "analyze_s": [r["analyze"] for r in rounds],
        "mc_reps_per_s": [r["montecarlo"] for r in rounds],
        "diagnose_verify_s": [r["diagnose_verify"] for r in rounds],
    }
    print(f"{'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} {'raw median':>11}")
    metrics = {}
    for name, samples in walls.items():
        values = [rescale(wall, cal) for wall, cal in samples]
        raw = [wall for wall, _ in samples]
        unit = "s"
        if name == "mc_reps_per_s":
            values, raw, unit = [reps / v for v in values], [reps / v for v in raw], "1/s"
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(
            f"{name:<20} {q2:>10.4f} {q1:>10.4f} {q3:>10.4f} {len(values):>3} "
            f"{statistics.median(raw):>11.4f}"
        )
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(f"{'peak_rss_mb':<20} {wb.peak_rss_mb:>10.1f}")
    metrics["peak_rss_mb"] = {"value": wb.peak_rss_mb, "unit": "MB"}
    return metrics


def per_layer(wb, rounds: list, probes: list) -> dict:
    """Layer metrics from the traced passes, and the per-layer table."""
    from measure import LAYERS

    bench, build = wb.bench, wb.build
    events = wb.events
    untraced = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for group, layers in LAYERS.items():
        rows = list(layers.values()) + ["unattributed"]
        total = statistics.median(t[group]["wall"] for t in traced)
        print(f"\n{group}: traced {total:.4f} s per call, {events} events")
        print(
            f"  {'layer':<30} {'calls':>5} {'wall s':>9} {'cpu s':>9} "
            f"{'share':>6} {'rss MB*':>7} {'events/s':>11}"
        )
        for layer in rows:
            cells = [t[group]["layers"][layer] for t in traced]
            wall = statistics.median(c["wall"] for c in cells)
            cpu = statistics.median(c["cpu"] for c in cells)
            rss = wb.first_rss_mb.get(layer, 0.0)
            name = f"{group}.unattributed" if layer == "unattributed" else layer
            put(f"{name}_s", wall, "s")
            put(f"{name}_cpu_s", cpu, "s")
            rate = events / wall if wall > 0 else 0.0
            print(
                f"  {name:<30} {cells[0]['calls']:>5} {wall:>9.4f} {cpu:>9.4f} "
                f"{wall / total:>6.1%} {rss:>7.1f} {rate:>11.0f}"
            )
        overhead = total - statistics.median(u[group][0] for u in untraced)
        put(f"{group}.tracing_overhead_s", overhead, "s")
        print(f"  tracing overhead {overhead:+.4f} s (traced - untraced median)")
    print("  * RSS growth during the first analyze pass of the process")

    put("builder.rss_delta_mb", wb.first_rss_mb["builder.build"], "MB")
    put("compiled.rss_delta_mb", wb.first_rss_mb["compiled.compile"], "MB")
    put("trace.events_per_s", events / metrics["trace.read_s"]["value"], "1/s")
    put("matching.transfers", len(build.match.transfer_of), "count")
    put("matching.collectives", len(build.match.collectives), "count")
    put("builder.nodes", len(build.graph.nodes), "count")
    put("builder.edges", len(build.graph.edges), "count")
    plan = wb.plan
    put("compiled.levels", len(plan.levels), "count")
    put("compiled.coarse_instances", plan.coarse.m if plan.coarse is not None else 0, "count")
    keys = ("compiled.lanes", "compiled.fallback_lanes")
    lanes = [tuple(t["montecarlo"]["counters"].get(k, 0) for k in keys) for t in traced]
    bench.check("lane counts repeat", len(set(lanes)) == 1, str(lanes))
    put("montecarlo.fallback_lanes", lanes[0][1], "count")
    put("montecarlo.vector_lane_ratio", 1.0 - lanes[0][1] / max(1, lanes[0][0]), "ratio")
    put("verify.races", wb.races, "count")
    for key in ("import_s", "import_cpu_s", "tables_s", "tables_cpu_s"):
        put(f"setup.{key}", statistics.median(p[key] for p in probes), "s")
    return metrics


def run(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = work / "inputs"
    inputs.mkdir()
    phases = {}
    t = time.perf_counter()
    _run_child("workloads.py", [workload.name, args.seed, inputs], work)
    phases["inputs"], t = time.perf_counter() - t, time.perf_counter()

    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    os.environ["REPRO_TABLES_CACHE"] = os.environ["XDG_CACHE_HOME"] = str(cache)
    sys.path.insert(0, str(SRC))
    import measure

    bench = measure.Bench(workload, inputs, args.seed)
    wb = measure.Workbench(bench)
    phases["warm-up"], t = time.perf_counter() - t, time.perf_counter()
    # Set-up probes run between rounds, so that like the other metrics
    # they sample the machine's speed over the whole run.
    probes: list = []

    def probe() -> None:
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(inputs, work))

    rounds = wb.rounds(args.seconds, traced=bool(args.trace), between=probe)
    while len(probes) < SETUP_PROBES:
        probe()
    phases["measure+setup"] = time.perf_counter() - t
    report = per_layer if args.trace else end_to_end
    metrics = report(wb, rounds, probes)
    print(
        f"e2ebench: {workload.name} seed {args.seed}: {len(rounds)} rounds; "
        + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()),
        file=sys.stderr,
    )
    for failure in bench.failures:
        print(f"e2ebench: FAILED {failure}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"e2ebench: analyzer sources not found under {SRC}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
