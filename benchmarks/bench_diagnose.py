"""PERF — diagnosis pipeline cost and oracle-agreement smoke.

Times one full ``diagnose_build`` pass (critical-path extraction,
attribution, anomaly detection, MPG2xx rules) on a token-ring build,
times the compiled longest-path kernel against the scalar reference
oracle (``longest_weighted_path``) on the same build, and checks that
both recover the same path.  The diagnosis is meant to ride along with every
analysis — this bench keeps its cost visibly small relative to the
Monte-Carlo propagation it accompanies.

``REPRO_BENCH_DIAG_TRAVERSALS`` scales the trace (default 8).
"""

import os
import time

from benchmarks._common import emit, table
from repro.apps import TokenRingParams, token_ring
from repro.core import build_graph
from repro.core.traversal import longest_weighted_path
from repro.diagnose import DiagnoseConfig, diagnose_build, extract_critical_path
from repro.diagnose.path import path_costs
from repro.mpisim import run

TRAVERSALS = int(os.environ.get("REPRO_BENCH_DIAG_TRAVERSALS", "8"))


def diag_build():
    trace = run(token_ring(TokenRingParams(traversals=TRAVERSALS)), nprocs=8, seed=0).trace
    return build_graph(trace)


def test_diagnose_pipeline(benchmark):
    build = diag_build()
    extract_critical_path(build)  # lower the compiled plan once (cached)

    report = benchmark(lambda: diagnose_build(build))

    t0 = time.perf_counter()
    cp = extract_critical_path(build)
    t1 = time.perf_counter()
    L, pred = longest_weighted_path(build, path_costs(build).tolist())
    t2 = time.perf_counter()
    per_engine = {"compiled": t1 - t0, "oracle": t2 - t1}
    assert cp.edges == report.critical_path.edges
    node, oracle_edges = cp.nodes[-1], []
    while pred[node] >= 0:
        oracle_edges.append(pred[node])
        node = build.graph.edges[pred[node]].src
    assert tuple(reversed(oracle_edges)) == cp.edges
    assert L[cp.nodes[-1]] == cp.total_cost
    t_engines = t2 - t0

    rows = [
        (engine, f"{dt * 1e3:.2f} ms", f"{len(report.critical_path)} edges")
        for engine, dt in per_engine.items()
    ]
    body = table(["engine", "extract time", "path"], rows)
    summary = (
        f"diagnosis of p={build.graph.nprocs} "
        f"n={len(build.graph.nodes)} graph: "
        f"{len(report.findings)} finding(s), makespan "
        f"{report.critical_path.total_cost:,.0f} cy "
        f"(compiled kernel and oracle agree bit-for-bit)"
    )
    emit(
        "perf_diagnose",
        body + "\n" + summary,
        params={"traversals": TRAVERSALS, "nprocs": build.graph.nprocs},
        timings={f"extract_{k}_s": v for k, v in per_engine.items()}
        | {"engine_sweep_s": t_engines},
        metrics={
            "findings": len(report.findings),
            "path_edges": len(report.critical_path),
            "makespan_cy": report.critical_path.total_cost,
        },
    )


def test_diagnose_with_replicates(benchmark):
    """Replicate-delay metric via the compiled batch kernel."""
    from repro.noise import Exponential, MachineSignature

    build = diag_build()
    signature = MachineSignature(os_noise=Exponential(120.0), latency=Exponential(50.0))
    config = DiagnoseConfig(replicates=32, seed=17)
    diagnose_build(build, config, signature=signature)  # warm-up

    report = benchmark(lambda: diagnose_build(build, config, signature=signature))
    assert "replicate-delay" in report.anomalies.metrics
