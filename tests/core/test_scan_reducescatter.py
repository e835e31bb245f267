"""End-to-end tests for the Scan and Reduce_scatter collectives."""

import pytest

from repro.core import (
    BuildConfig,
    PerturbationSpec,
    build_graph,
    check_correctness,
    propagate,
)
from repro.core.graph import DeltaKind, Phase
from repro.lint import lint_run
from repro.mpisim import Compute, Machine, NetworkModel, ReduceScatter, Scan, run
from repro.noise import Constant, Exponential, MachineSignature
from repro.trace.events import EventKind

from tests.conftest import assert_engines_agree

NET = NetworkModel(latency=100.0, bandwidth=1.0, send_overhead=10.0, recv_overhead=10.0)


def prog(me):
    yield Compute(1_000.0 * (me.rank + 1))
    yield Scan(nbytes=64)
    yield Compute(500.0)
    yield ReduceScatter(nbytes=128)


@pytest.fixture(scope="module")
def trace():
    return run(prog, machine=Machine(nprocs=5, network=NET), seed=0).trace


class TestSimulator:
    def test_traces_validate(self, trace):
        assert lint_run(trace).ok

    def test_scan_is_a_prefix_pipeline(self, trace):
        ends = {}
        for r in range(5):
            for ev in trace.events_of(r):
                if ev.kind == EventKind.SCAN:
                    ends[r] = ev.t_end
        # Exits strictly increase along the chain: rank r waits for 0..r.
        for r in range(1, 5):
            assert ends[r] > ends[r - 1]

    def test_scan_rank0_exits_first(self, trace):
        starts, ends = {}, {}
        for r in range(5):
            for ev in trace.events_of(r):
                if ev.kind == EventKind.SCAN:
                    starts[r], ends[r] = ev.t_start, ev.t_end
        assert ends[0] == min(ends.values())

    def test_reduce_scatter_synchronizes(self, trace):
        entries, exits = {}, {}
        for r in range(5):
            for ev in trace.events_of(r):
                if ev.kind == EventKind.REDUCE_SCATTER:
                    entries[r], exits[r] = ev.t_start, ev.t_end
        last_entry = max(entries.values())
        assert all(x > last_entry for x in exits.values())


class TestAnalyzer:
    def test_scan_template_is_prefix_chain(self, trace):
        build = build_graph(trace)
        g = build.graph
        prefix_edges = [e for e in g.message_edges() if e.label == "prefix"]
        assert len(prefix_edges) == 4  # p-1 chain hops

    def test_scan_delay_propagates_down_chain_only(self, trace):
        """Rank 0's noise delays everyone's scan; rank 4's delays no one
        else — the asymmetry that distinguishes scan from allreduce."""
        build = build_graph(trace)
        for noisy, expect_all in ((0, True), (4, False)):
            sig = MachineSignature(os_noise_by_rank={noisy: Constant(10_000.0)})
            res = propagate(build, PerturbationSpec(sig, seed=0))
            scan_seq = next(e.seq for e in build.events[0] if e.kind == EventKind.SCAN)
            delays = [
                res.node_delay[build.graph.node_of(r, scan_seq, Phase.END)] for r in range(5)
            ]
            if expect_all:
                assert all(d > 0 for d in delays)
            else:
                assert delays[4] > 0
                assert all(d == 0 for d in delays[:4])

    def test_reduce_scatter_uses_hub(self, trace):
        build = build_graph(trace)
        fanin = [
            e
            for e in build.graph.message_edges()
            if e.delta.kind == DeltaKind.COLL_FANIN
        ]
        assert len(fanin) == 5  # one l_δ edge per rank for the reduce_scatter

    def test_streaming_equality(self, trace):
        sig = MachineSignature(os_noise=Exponential(70.0), latency=Exponential(30.0))
        assert_engines_agree(trace, PerturbationSpec(sig, seed=3))
        assert_engines_agree(
            trace,
            PerturbationSpec(sig, seed=3),
            config=BuildConfig(collective_mode="butterfly"),
        )

    def test_correctness_clean(self, trace):
        build = build_graph(trace)
        res = propagate(
            build, PerturbationSpec(MachineSignature(os_noise=Exponential(100.0)), seed=1)
        )
        assert check_correctness(build, res).ok
