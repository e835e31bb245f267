"""SCALE — analyzer throughput vs process count and trace size.

Backs the paper's scalability positioning ("windowed graph generation
... makes it fully scalable", §7): build, in-core and streaming times
as p and events-per-rank grow, with the streaming engine's events/second
as the headline number.  The in-core column times ``propagate``, the
production compiled engine: one plan compile plus one walk (the first
row also pays the process's one-time sampler-table load).
"""

import time


from benchmarks._common import emit, table
from repro.apps import TokenRingParams, token_ring
from repro.core import PerturbationSpec, StreamingTraversal, build_graph, propagate
from repro.mpisim import run
from repro.noise import Exponential, MachineSignature


def test_scale_with_processes(benchmark):
    spec = PerturbationSpec(
        MachineSignature(os_noise=Exponential(100.0), latency=Exponential(40.0)), seed=0
    )
    rows = []
    biggest = None
    timings = {}
    throughput = {}
    for p in (8, 32, 128):
        trace = run(token_ring(TokenRingParams(traversals=8)), nprocs=p, seed=0).trace
        events = sum(len(evs) for evs in trace.load_all())

        t0 = time.perf_counter()
        build = build_graph(trace)
        t_build = time.perf_counter() - t0

        t0 = time.perf_counter()
        propagate(build, spec)
        t_prop = time.perf_counter() - t0

        t0 = time.perf_counter()
        StreamingTraversal(spec).run(trace)
        t_stream = time.perf_counter() - t0

        timings[f"build_p{p}_s"] = t_build
        timings[f"compiled_p{p}_s"] = t_prop
        timings[f"stream_p{p}_s"] = t_stream
        throughput[str(p)] = events / t_stream
        rows.append(
            [
                p,
                events,
                f"{t_build * 1e3:.0f}",
                f"{t_prop * 1e3:.0f}",
                f"{t_stream * 1e3:.0f}",
                f"{events / t_stream:,.0f}",
            ]
        )
        biggest = trace

    emit(
        "scale_analyzer",
        table(
            ["p", "events", "build ms", "compiled ms", "stream ms", "stream ev/s"],
            rows,
            widths=[5, 9, 9, 13, 10, 13],
        ),
        params={"procs": [8, 32, 128], "traversals": 8},
        timings=timings,
        metrics={"stream_events_per_s": throughput},
    )

    benchmark(lambda: StreamingTraversal(spec).run(biggest))


def test_scale_with_trace_length(benchmark):
    """Per-event cost must stay ~constant as the trace grows (linear
    scaling — the property that makes arbitrarily long traces feasible)."""
    spec = PerturbationSpec(MachineSignature(os_noise=Exponential(100.0)), seed=0)
    p = 8
    costs = []
    rows = []
    for traversals in (10, 40, 160):
        trace = run(token_ring(TokenRingParams(traversals=traversals)), nprocs=p, seed=0).trace
        events = sum(len(evs) for evs in trace.load_all())
        t0 = time.perf_counter()
        StreamingTraversal(spec).run(trace)
        dt = time.perf_counter() - t0
        costs.append(dt / events)
        rows.append([traversals, events, f"{dt * 1e3:.0f}", f"{dt / events * 1e6:.1f}"])
    emit(
        "scale_trace_length",
        table(
            ["traversals", "events", "total ms", "us/event"],
            rows,
            widths=[10, 9, 9, 9],
        ),
        params={"nprocs": p, "traversal_ladder": [10, 40, 160]},
        timings={f"stream_t{r[0]}_s": c * r[1] for r, c in zip(rows, costs)},
        metrics={"per_event_cost_s": {str(r[0]): c for r, c in zip(rows, costs)}},
    )
    # Linear scaling: per-event cost within 3x across a 16x trace growth.
    assert max(costs) / min(costs) < 3.0

    trace = run(token_ring(TokenRingParams(traversals=40)), nprocs=p, seed=0).trace
    benchmark(lambda: StreamingTraversal(spec).run(trace))
