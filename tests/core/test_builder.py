"""Tests for trace → graph construction."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_graph
from repro.core.diagnostics import DiagnosticError
from repro.core.graph import DeltaKind, Phase
from repro.core.primitives import BuildConfig
from repro.mpisim import Compute, Machine, Recv, Send, run
from repro.trace import format as fmt
from repro.trace.events import EventKind, EventRecord, TraceMeta
from repro.trace.reader import MemoryTrace, TraceSet
from repro.trace.writer import rank_filename

from tests.conftest import plan_program
from tests.core.test_build_golden import graph_hash


class TestStructure:
    def test_two_nodes_per_event(self, ring_trace):
        build = build_graph(ring_trace)
        per_rank = build.events
        real_nodes = sum(1 for n in build.graph.nodes if not n.is_virtual)
        assert real_nodes == 2 * sum(len(evs) for evs in per_rank)

    def test_straight_line_chains(self, ring_trace):
        build = build_graph(ring_trace)
        g = build.graph
        for rank in range(g.nprocs):
            chain = g.rank_chain(rank)
            # S/E alternation in seq order.
            phases = [g.nodes[n].phase for n in chain]
            assert phases[::2] == [Phase.START] * (len(chain) // 2)
            assert phases[1::2] == [Phase.END] * (len(chain) // 2)

    def test_final_nodes_are_finalize_ends(self, ring_trace):
        build = build_graph(ring_trace)
        g = build.graph
        for rank in range(g.nprocs):
            node = g.nodes[g.final_nodes[rank]]
            assert node.kind == EventKind.FINALIZE
            assert node.phase == Phase.END

    def test_local_edge_weights_are_observed_intervals(self, ring_trace):
        build = build_graph(ring_trace)
        g = build.graph
        for edge in g.local_edges():
            src, dst = g.nodes[edge.src], g.nodes[edge.dst]
            if src.is_virtual or dst.is_virtual:
                continue
            assert edge.weight == pytest.approx(dst.t_local - src.t_local)

    def test_message_edges_weight_zero(self, ring_trace):
        build = build_graph(ring_trace)
        for edge in build.graph.message_edges():
            assert edge.weight == 0.0  # §6

    def test_graph_is_dag(self, ring_trace, stencil_trace):
        for trace in (ring_trace, stencil_trace):
            build = build_graph(trace)
            order = build.graph.topological_order()
            assert len(order) == len(build.graph.nodes)

    def test_hub_virtual_node_per_unrooted_collective(self, ring_trace):
        build = build_graph(ring_trace)  # ends with one allreduce
        virtuals = [n for n in build.graph.nodes if n.is_virtual]
        assert len(virtuals) == 1
        assert virtuals[0].label.startswith("hub#")

    def test_butterfly_adds_round_nodes(self, ring_trace):
        build = build_graph(ring_trace, BuildConfig(collective_mode="butterfly"))
        virtuals = [n for n in build.graph.nodes if n.is_virtual]
        p = ring_trace.nprocs
        rounds = math.ceil(math.log2(p))
        assert len(virtuals) == p * (rounds + 1)

    def test_butterfly_larger_than_hub(self, ring_trace):
        hub = build_graph(ring_trace).graph.stats()
        bfly = build_graph(ring_trace, BuildConfig(collective_mode="butterfly")).graph.stats()
        assert bfly["edges"] > hub["edges"]
        assert bfly["nodes"] > hub["nodes"]


class TestTransfersInGraph:
    def test_every_transfer_has_data_edge(self, ring_trace):
        build = build_graph(ring_trace)
        data_edges = [
            e for e in build.graph.message_edges() if e.delta.kind == DeltaKind.TRANSFER_OS
        ]
        assert len(data_edges) == build.match.link_count()

    def test_eager_threshold_removes_acks(self, ring_trace):
        full = build_graph(ring_trace)
        eager = build_graph(ring_trace, BuildConfig(eager_threshold=10**6))
        full_acks = sum(
            1
            for e in full.graph.message_edges()
            if e.delta.kind in (DeltaKind.LATENCY, DeltaKind.ROUNDTRIP)
        )
        eager_acks = sum(
            1
            for e in eager.graph.message_edges()
            if e.delta.kind in (DeltaKind.LATENCY, DeltaKind.ROUNDTRIP)
        )
        assert full_acks > 0
        assert eager_acks == 0


class TestAbsoluteWeights:
    def test_absolute_mode_uses_time_differences(self):
        # Perfect clocks => cross-rank times comparable.
        def prog(me):
            if me.rank == 0:
                yield Compute(1000.0)
                yield Send(dest=1, nbytes=32)
            else:
                yield Recv(source=0)

        trace = run(prog, nprocs=2, seed=0).trace
        build = build_graph(trace, BuildConfig(absolute_weights=True))
        data = [
            e for e in build.graph.message_edges() if e.delta.kind == DeltaKind.TRANSFER_OS
        ][0]
        src, dst = build.graph.nodes[data.src], build.graph.nodes[data.dst]
        assert data.weight == pytest.approx(dst.t_local - src.t_local)
        assert data.weight > 0

    def test_default_mode_ignores_clock_differences(self):
        def prog(me):
            if me.rank == 0:
                yield Send(dest=1, nbytes=32)
            else:
                yield Recv(source=0)

        machine = Machine(nprocs=2).with_skewed_clocks(seed=1)
        trace = run(prog, machine=machine, seed=0).trace
        build = build_graph(trace)
        for e in build.graph.message_edges():
            assert e.weight == 0.0


def _ev(rank, seq, kind, t0, t1):
    return EventRecord(rank=rank, seq=seq, kind=kind, t_start=t0, t_end=t1)


def _corrupt_end(ev, t_end):
    """An event whose END precedes its START (bypasses the record's own
    check, as a corrupt decoder would)."""
    object.__setattr__(ev, "t_end", t_end)
    return ev


_I, _F = EventKind.INIT, EventKind.FINALIZE


# Malformed rank-1 event lists and the (code, seq) each must fail with.
_MUTATIONS = [
    # a repeated seq
    (
        [_ev(1, 0, _I, 0, 1), _ev(1, 1, _I, 2, 3), _ev(1, 1, _F, 4, 5)],
        "duplicate-subevent",
        1,
    ),
    ([_ev(1, 0, _I, 0, 1), _ev(1, 0, _F, 2, 3)], "duplicate-subevent", 0),
    # a seq gap, forwards and backwards
    ([_ev(1, 0, _I, 0, 1), _ev(1, 2, _F, 2, 3)], "invalid-gap", 2),
    ([_ev(1, 1, _I, 0, 1), _ev(1, 0, _F, 2, 3)], "invalid-gap", 0),
    # overlapping events
    ([_ev(1, 0, _I, 0, 10), _ev(1, 1, _F, 5, 12)], "overlapping-events", 1),
    # a negative local weight (END before START)
    ([_ev(1, 0, _I, 0, 1), _corrupt_end(_ev(1, 1, _F, 5, 6), 3)], "invalid-edge-weight", 1),
    # the negative weight is reported before the gap it also has
    ([_ev(1, 0, _I, 0, 1), _corrupt_end(_ev(1, 3, _F, 5, 6), 3)], "invalid-edge-weight", 3),
]


class TestBuildErrors:
    """Malformed per-rank event lists fail with their structured codes,
    and never as an IndexError or a silently wrong edge."""

    @pytest.mark.parametrize("rank1, code, seq", _MUTATIONS)
    def test_error_codes(self, rank1, code, seq):
        rank0 = [_ev(0, 0, _I, 0, 1), _ev(0, 1, _F, 2, 3)]
        with pytest.raises(DiagnosticError) as info:
            build_graph(MemoryTrace([rank0, rank1]))
        assert info.value.code == code
        assert (info.value.rank, info.value.seq) == (1, seq)


def _write_raw(directory, per_rank, binary):
    """Trace files holding exactly ``per_rank`` (no writer checks, so
    a malformed rank reaches the reader as it is)."""
    for rank, events in enumerate(per_rank):
        meta = TraceMeta(rank=rank, nprocs=len(per_rank))
        path = directory / rank_filename("m", rank, binary)
        if binary:
            with open(path, "wb") as fh:
                fmt.write_header_binary(fh, meta)
                fh.write(b"".join(fmt.encode_event_binary(ev) for ev in events))
        else:
            with open(path, "w") as fh:
                fmt.write_header_text(fh, meta)
                fh.write("".join(fmt.encode_event_text(ev) + "\n" for ev in events))
    return TraceSet.open(directory, "m")


def _failure(trace):
    try:
        build_graph(trace)
    except DiagnosticError as exc:
        return exc.code, exc.rank, exc.seq, str(exc)
    return None


_ROUND = st.one_of(
    st.tuples(st.just("compute"), st.integers(100, 3000)),
    st.tuples(st.just("ring"), st.integers(0, 20_000)),
    st.tuples(st.just("xchg"), st.integers(0, 2000)),
    st.tuples(st.just("nb"), st.integers(0, 20_000)),
    st.tuples(st.just("allreduce"), st.integers(0, 128)),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("bcast"), st.integers(0, 1), st.integers(0, 128)),
    st.tuples(st.just("reduce"), st.integers(0, 1), st.integers(0, 128)),
    st.tuples(st.just("scan"), st.integers(0, 128)),
    st.tuples(st.just("rscatter"), st.integers(0, 128)),
    st.tuples(st.just("fanin"), st.integers(1, 64)),
    st.tuples(st.just("ifanin"), st.integers(1, 64)),
)


class TestFilesBuildLikeMemory:
    """A build from trace files (decoded in columns) equals the build
    from the same in-memory events, node for node and edge for edge."""

    @given(
        plan=st.lists(_ROUND, min_size=1, max_size=4),
        p=st.integers(2, 4),
        binary=st.booleans(),
        config=st.sampled_from(
            [BuildConfig(), BuildConfig(collective_mode="butterfly", eager_threshold=64)]
        ),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_graph_hash(self, plan, p, binary, config, tmp_path_factory):
        trace = run(plan_program(plan), nprocs=p, seed=1).trace
        files = _write_raw(tmp_path_factory.mktemp("b"), trace.load_all(), binary)
        from_files = build_graph(files, config)
        from_memory = build_graph(trace, config)
        assert graph_hash(from_files.graph) == graph_hash(from_memory.graph)
        assert from_files.events == from_memory.events

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("rank1, code, seq", _MUTATIONS)
    def test_same_error(self, rank1, code, seq, binary, tmp_path):
        rank0 = [_ev(0, 0, _I, 0, 1), _ev(0, 1, _F, 2, 3)]
        from_files = _failure(_write_raw(tmp_path, [rank0, rank1], binary))
        from_memory = _failure(MemoryTrace([rank0, rank1]))
        assert from_memory[:3] == (code, 1, seq)
        if any(ev.t_end < ev.t_start for ev in rank1):
            # No reader decodes an event that ends before it starts: the
            # file fails before the build, naming the rank.
            assert from_files[0] == "generic" and from_files[1] == 1
            assert "cannot read" in from_files[3]
        else:
            assert from_files[:3] == from_memory[:3]
