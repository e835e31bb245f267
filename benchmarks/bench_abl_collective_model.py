"""ABL1 — Fig. 4 hub approximation vs explicit butterfly expansion.

§3.2: the explicit butterfly "is not space or time efficient given the
fact that we know a-priori that a single collective operation can be
considered equivalent to log(p) periods of local computation and
pairwise messaging."  This ablation quantifies both halves of that
trade: graph size / analysis time (hub wins) and prediction gap (the
models should agree within small factors).  The table holds no
timings, so a re-run reproduces it; the build-and-propagate times are
in the result JSON's ``timings``.
"""

import time


from benchmarks._common import emit, table
from repro.apps import AllreduceIterParams, allreduce_iter
from repro.core import BuildConfig, PerturbationSpec, build_graph, propagate
from repro.mpisim import run
from repro.noise import Exponential, MachineSignature


def test_abl_collective_model(benchmark):
    sig = MachineSignature(os_noise=Exponential(150.0), latency=Exponential(60.0))
    spec = PerturbationSpec(sig, seed=4)
    prog_params = AllreduceIterParams(iterations=8)

    rows = []
    bfly_build_16 = None
    timings = {}
    gaps = {}
    for p in (4, 8, 16, 32):
        trace = run(allreduce_iter(prog_params), nprocs=p, seed=0).trace

        t0 = time.perf_counter()
        hub_build = build_graph(trace, BuildConfig(collective_mode="hub"))
        hub_res = propagate(hub_build, spec)
        t_hub = time.perf_counter() - t0

        t0 = time.perf_counter()
        bfly_build = build_graph(trace, BuildConfig(collective_mode="butterfly"))
        bfly_res = propagate(bfly_build, spec)
        t_bfly = time.perf_counter() - t0
        if p == 16:
            bfly_build_16 = bfly_build

        gap = hub_res.max_delay / bfly_res.max_delay
        timings[f"hub_p{p}_s"] = t_hub
        timings[f"bfly_p{p}_s"] = t_bfly
        gaps[str(p)] = gap
        rows.append(
            [
                p,
                hub_build.graph.stats()["edges"],
                bfly_build.graph.stats()["edges"],
                f"{hub_res.max_delay:,.0f}",
                f"{bfly_res.max_delay:,.0f}",
                f"{gap:.2f}",
            ]
        )
        # Butterfly is strictly larger; predictions within small factors.
        assert bfly_build.graph.stats()["edges"] > hub_build.graph.stats()["edges"]
        assert 0.3 < gap < 3.0

    emit(
        "abl_collective_model",
        table(
            [
                "p",
                "hub edges",
                "bfly edges",
                "hub delay",
                "bfly delay",
                "hub/bfly",
            ],
            rows,
            widths=[4, 10, 10, 12, 12, 9],
        ),
        params={"procs": [4, 8, 16, 32], "iterations": 8},
        timings=timings,
        metrics={
            "hub_over_bfly_delay": gaps,
            "hub_edges_by_p": {str(r[0]): r[1] for r in rows},
            "bfly_edges_by_p": {str(r[0]): r[2] for r in rows},
        },
    )

    # Edge growth shape: hub is O(p) per collective, butterfly O(p log p).
    hub_edges = [int(r[1]) for r in rows]
    bfly_edges = [int(r[2]) for r in rows]
    assert bfly_edges[-1] / bfly_edges[0] > hub_edges[-1] / hub_edges[0]

    benchmark(propagate, bfly_build_16, spec)
