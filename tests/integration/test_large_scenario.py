"""One large end-to-end scenario exercising everything at once:

64 ranks, a mixed-pattern application (halo exchange + collectives +
wildcard master traffic), binary trace files on disk, validation,
in-core and streaming analysis, microbench-measured signature, history,
and the Dimemas replay — the closest thing to a production run.
"""

import pytest

from repro.baselines import ReplayParams, replay
from repro.core import (
    ExperimentHistory,
    PerturbationSpec,
    StreamingTraversal,
    absorption_map,
    build_graph,
    check_correctness,
    critical_path,
    monte_carlo,
    propagate,
    runtime_impact,
)
from repro.lint import lint_run
from repro.machines import noisy_cluster, quiet_cluster
from repro.microbench import measure_machine
from repro.mpisim import (
    ANY_SOURCE,
    Allreduce,
    Bcast,
    Compute,
    Irecv,
    Isend,
    Recv,
    Send,
    Waitall,
    run_to_files,
)
from repro.testing import oracle
from repro.trace import TraceSet
from repro.trace.stats import trace_stats

P = 64


def mixed_app(me):
    """Halo exchange + periodic allreduce + master heartbeat traffic."""
    p = me.size
    left, right = (me.rank - 1) % p, (me.rank + 1) % p
    for it in range(4):
        r1 = yield Irecv(source=left, tag=1)
        r2 = yield Irecv(source=right, tag=2)
        s1 = yield Isend(dest=right, nbytes=2048, tag=1)
        s2 = yield Isend(dest=left, nbytes=2048, tag=2)
        yield Compute(30_000.0 * (1.0 + 0.1 * (me.rank % 5)))
        yield Waitall([r1, r2, s1, s2])
        yield Allreduce(nbytes=16)
        if it == 1:
            # Heartbeats to rank 0 via wildcard receives.
            if me.rank == 0:
                for _ in range(p - 1):
                    yield Recv(source=ANY_SOURCE, tag=9)
                yield Bcast(root=0, nbytes=64)
            else:
                yield Send(dest=0, nbytes=4, tag=9)
                yield Bcast(root=0, nbytes=64)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("large")
    machine = quiet_cluster(P, seed=0)
    result = run_to_files(
        mixed_app, tmp, "mixed", machine=machine, seed=3, binary=True, program_name="mixed"
    )
    return tmp, result


def test_large_scenario_end_to_end(scenario):
    tmp, result = scenario
    traces = TraceSet.open(tmp, "mixed")
    assert traces.nprocs == P

    # -- structural soundness -------------------------------------------------
    report = lint_run(traces)
    assert report.ok
    stats = trace_stats(traces)
    assert stats.total_events == report.event_count
    assert stats.total_bytes > P * 4 * 2 * 2048  # halos dominate

    # -- signature from a measured machine -------------------------------------
    mb = measure_machine(noisy_cluster(2, skewed_clocks=False), seed=1, ftq_quanta=512,
                         pingpong_iterations=64, bandwidth_iterations=8, mraz_messages=64)
    spec = PerturbationSpec(mb.to_signature(), seed=5)

    # -- both engines agree with the oracle -----------------------------------------
    build = build_graph(traces)
    incore = propagate(build, spec)
    reference = oracle.propagate(build, spec)
    assert incore.final_delay == reference.final_delay
    streaming = StreamingTraversal(spec).run(traces)
    for a, b in zip(reference.final_delay, streaming.final_delay):
        assert a == pytest.approx(b, abs=1e-6)
    assert incore.max_delay > 0

    # -- analyses run and are coherent --------------------------------------------
    assert check_correctness(build, incore).ok
    impact = runtime_impact(build, incore)
    assert impact.max_slowdown > 0
    cp = critical_path(build, incore)
    assert cp.total_delay == pytest.approx(incore.max_delay)
    am = absorption_map(build, incore)
    assert 0.0 <= am.overall_ratio() <= 1.0

    # -- monte carlo over the big build ---------------------------------------------
    dist = monte_carlo(build, spec, replicates=5)
    assert dist.nprocs == P

    # -- history + exact replay of the experiment -------------------------------------
    history = ExperimentHistory(tmp / "history.jsonl")
    rec = history.record("large-scenario", spec, incore, build.config)
    replayed = propagate(build, history.replay_spec(rec))
    assert list(replayed.final_delay) == list(rec.delays)

    # -- Dimemas baseline identity on the same files ------------------------------------
    net = quiet_cluster(P, skewed_clocks=False).network
    rp = replay(
        traces,
        ReplayParams(
            latency=net.latency,
            bandwidth=net.bandwidth,
            send_overhead=net.send_overhead,
            recv_overhead=net.recv_overhead,
            eager_threshold=net.eager_threshold,
        ),
    )
    # Identity holds only up to clock drift here: the preset machine's
    # per-rank clocks drift by up to ±100 ppm (§4.1 realism), so traced
    # intervals differ from global durations by that order.
    assert rp.makespan == pytest.approx(rp.original_makespan, rel=5e-4)
