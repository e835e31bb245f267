"""Tests for delta propagation — the heart of the paper.

The numeric cases hand-build traces and use constant distributions so
Eq. (1)/Eq. (2) can be checked to the cycle; the property-based cases
generate random-but-valid runs through the simulator and verify the
global invariants (zero identity, monotonicity, streaming ≡ in-core,
order preservation).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BuildConfig,
    PerturbationSpec,
    StreamingTraversal,
    build_graph,
    propagate,
)
from repro.core.graph import Phase
from repro.core.matching import MatchError
from repro.mpisim import run
from repro.noise import Constant, Empirical, Exponential, Gamma, LogNormal, MachineSignature, Normal
from repro.trace.events import EventKind, EventRecord
from repro.testing import oracle
from repro.trace.reader import MemoryTrace

from tests.conftest import assert_engines_agree, plan_program

A, L, B = 100.0, 50.0, 0.01  # os, latency, per-byte constants


def const_spec(seed=0, scale=1.0):
    return PerturbationSpec(
        MachineSignature(os_noise=Constant(A), latency=Constant(L), per_byte=Constant(B)),
        seed=seed,
        scale=scale,
    )


def ev(rank, seq, kind, t0, t1, **kw):
    return EventRecord(rank=rank, seq=seq, kind=kind, t_start=t0, t_end=t1, **kw)


def blocking_pair_trace(nbytes=512):
    """Hand-built Fig. 2 scenario on two ranks."""
    r0 = [
        ev(0, 0, EventKind.INIT, 0.0, 10.0),
        ev(0, 1, EventKind.SEND, 100.0, 200.0, peer=1, tag=0, nbytes=nbytes),
        ev(0, 2, EventKind.FINALIZE, 300.0, 310.0),
    ]
    r1 = [
        ev(1, 0, EventKind.INIT, 0.0, 10.0),
        ev(1, 1, EventKind.RECV, 50.0, 250.0, peer=0, tag=0, nbytes=nbytes),
        ev(1, 2, EventKind.FINALIZE, 260.0, 270.0),
    ]
    return MemoryTrace([r0, r1])


class TestEq1BlockingPair:
    def test_additive_delays_exact(self):
        trace = blocking_pair_trace(nbytes=512)
        build = build_graph(trace)
        res = propagate(build, const_spec())
        g = build.graph
        D = res.node_delay
        transfer = L + 512 * B  # δ_λ1 + δ_t(d)

        d_send_start = D[g.node_of(0, 1, Phase.START)]
        assert d_send_start == pytest.approx(A)  # one gap δ_os

        # Eq. 1 line 2: t'_re = t_rs + δ_os2 + δ_λ1 + δ_t(d), on top of the
        # sender's accumulated delay.
        d_recv_end = D[g.node_of(1, 1, Phase.END)]
        assert d_recv_end == pytest.approx(d_send_start + transfer + A)

        # Eq. 1 line 1: send end = max(local δ_os1 path, round-trip path).
        d_send_end = D[g.node_of(0, 1, Phase.END)]
        assert d_send_end == pytest.approx(max(d_send_start + A, d_recv_end + L))

        assert res.final_delay[0] == pytest.approx(d_send_end + A)  # + finalize gap
        assert res.final_delay[1] == pytest.approx(d_recv_end + A)

    def test_sender_local_path_can_dominate(self):
        """With a huge δ_os1 and tiny messaging deltas, Eq. 1's max picks
        the local term."""
        spec = PerturbationSpec(
            MachineSignature(os_noise=Constant(10_000.0), latency=Constant(0.0)),
            seed=0,
        )
        trace = blocking_pair_trace(nbytes=0)
        build = build_graph(trace)
        res = propagate(build, spec)
        g = build.graph
        d_send_end = res.node_delay[g.node_of(0, 1, Phase.END)]
        d_send_start = res.node_delay[g.node_of(0, 1, Phase.START)]
        # local path: start + δ_os1; remote path adds only another os2=10k
        # so remote (start+10k+0+0) ties local — verify against both.
        assert d_send_end == pytest.approx(d_send_start + 10_000.0)

    def test_threshold_mode_absorbs_small_deltas(self):
        """Eq. 1 literal: δ below the observed interval does nothing on
        local edges.  Message edges have zero observed weight (§6), so the
        only surviving contribution is the δ_os2 riding the data path."""
        trace = blocking_pair_trace()
        build = build_graph(trace)
        # Gap weights are 90/40, intra send weight 100; os=1 << all weights;
        # latency/bandwidth zero.
        spec = PerturbationSpec(MachineSignature(os_noise=Constant(1.0)), seed=0)
        res = propagate(build, spec, mode="threshold")
        assert res.final_delay == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_threshold_mode_excess_propagates(self):
        trace = blocking_pair_trace()
        build = build_graph(trace)
        spec = PerturbationSpec(MachineSignature(os_noise=Constant(500.0)), seed=0)
        add = propagate(build, spec, mode="additive")
        thr = propagate(build, spec, mode="threshold")
        assert 0.0 < thr.max_delay < add.max_delay


def nonblocking_trace():
    """Hand-built Fig. 3 scenario: isend/irecv matched by wait pairs."""
    r0 = [
        ev(0, 0, EventKind.INIT, 0.0, 10.0),
        ev(0, 1, EventKind.ISEND, 100.0, 110.0, peer=1, tag=0, nbytes=100, req=0),
        ev(0, 2, EventKind.WAIT, 500.0, 520.0, reqs=(0,), completed=(0,)),
        ev(0, 3, EventKind.FINALIZE, 600.0, 610.0),
    ]
    r1 = [
        ev(1, 0, EventKind.INIT, 0.0, 10.0),
        ev(1, 1, EventKind.IRECV, 50.0, 60.0, peer=0, tag=0, nbytes=100, req=0),
        ev(1, 2, EventKind.WAIT, 400.0, 450.0, reqs=(0,), completed=(0,)),
        ev(1, 3, EventKind.FINALIZE, 500.0, 510.0),
    ]
    return MemoryTrace([r0, r1])


class TestEq2Nonblocking:
    def test_immediate_returns_unmodified(self):
        trace = nonblocking_trace()
        build = build_graph(trace)
        res = propagate(build, const_spec())
        g = build.graph
        D = res.node_delay
        # Eq. 2 note: isend/irecv END delays come only from their own rank's
        # local chain (one gap δ_os each), never from the transfer.
        assert D[g.node_of(0, 1, Phase.END)] == pytest.approx(A)
        assert D[g.node_of(1, 1, Phase.END)] == pytest.approx(A)

    def test_transfer_lands_on_waits(self):
        trace = nonblocking_trace()
        build = build_graph(trace)
        res = propagate(build, const_spec())
        g = build.graph
        D = res.node_delay
        transfer = L + 100 * B
        # Receiver's wait: local chain (2 gaps) vs data path (gap + transfer + os2).
        d_wr = D[g.node_of(1, 2, Phase.END)]
        assert d_wr == pytest.approx(max(2 * A, A + transfer + A))
        # Sender's wait: local chain vs rendezvous roundtrip from posted irecv.
        d_ws = D[g.node_of(0, 2, Phase.END)]
        d_irecv_end = D[g.node_of(1, 1, Phase.END)]
        roundtrip = L + 100 * B + A + L
        assert d_ws == pytest.approx(max(2 * A, d_irecv_end + roundtrip))


def allreduce_trace(p=3, nbytes=64):
    per_rank = []
    for r in range(p):
        per_rank.append(
            [
                ev(r, 0, EventKind.INIT, 0.0, 10.0),
                ev(r, 1, EventKind.ALLREDUCE, 100.0, 300.0, nbytes=nbytes, coll_seq=0),
                ev(r, 2, EventKind.FINALIZE, 400.0, 410.0),
            ]
        )
    return MemoryTrace(per_rank)


class TestFig4Collectives:
    def test_allreduce_hub_exact(self):
        trace = allreduce_trace(p=3, nbytes=64)
        build = build_graph(trace)
        res = propagate(build, const_spec())
        g = build.graph
        D = res.node_delay
        l_delta = 2 * (A + L + 64 * B)  # ceil(log2 3) = 2 rounds
        for r in range(3):
            d_start = D[g.node_of(r, 1, Phase.START)]
            assert d_start == pytest.approx(A)
            # Fig. 4: every END gets max over fan-ins of (D_start + l_δ).
            assert D[g.node_of(r, 1, Phase.END)] == pytest.approx(A + l_delta)

    def test_max_perturbed_rank_dominates(self):
        """'forcing the slowest node ... to dominate the performance of
        the entire collective' (§3.2)."""
        sig = MachineSignature(
            os_noise=Constant(0.0),
            latency=Constant(0.0),
            os_noise_by_rank={2: Constant(5_000.0)},
        )
        trace = allreduce_trace(p=4)
        build = build_graph(trace)
        res = propagate(build, PerturbationSpec(sig, seed=0))
        # Rank 2 enters 5000 late (its compute gap) and contributes
        # 2 rounds x 5000 of fan-in noise; the hub max reaches every rank.
        hub = 5_000.0 + 2 * 5_000.0
        for r, d in enumerate(res.final_delay):
            # Rank 2 pays one more gap sample before its FINALIZE.
            assert d == pytest.approx(hub + (5_000.0 if r == 2 else 0.0))

    def test_reduce_exact(self):
        p, root = 3, 1
        per_rank = []
        for r in range(p):
            per_rank.append(
                [
                    ev(r, 0, EventKind.INIT, 0.0, 10.0),
                    ev(r, 1, EventKind.REDUCE, 100.0, 300.0, nbytes=8, root=root, coll_seq=0),
                    ev(r, 2, EventKind.FINALIZE, 400.0, 410.0),
                ]
            )
        build = build_graph(MemoryTrace(per_rank))
        res = propagate(build, const_spec())
        g = build.graph
        D = res.node_delay
        # Root END: max(own local δ_os, fan-in single-latency paths).
        d_root = D[g.node_of(root, 1, Phase.END)]
        assert d_root == pytest.approx(max(A + A, A + L))
        # Non-root ENDs: max(own local δ_os path, root's contribution).
        for r in range(p):
            if r != root:
                assert D[g.node_of(r, 1, Phase.END)] == pytest.approx(max(2 * A, d_root))


class TestGlobalInvariants:
    def test_zero_perturbation_identity(self, ring_trace, stencil_trace):
        spec = PerturbationSpec(MachineSignature(), seed=0)
        for trace in (ring_trace, stencil_trace):
            build = build_graph(trace)
            res = propagate(build, spec)
            assert all(d == 0.0 for d in res.final_delay)
            assert all(d == 0.0 for d in res.node_delay)

    def test_streaming_equals_incore_canned(self, ring_trace, stencil_trace, mixed_spec):
        for trace in (ring_trace, stencil_trace):
            assert_engines_agree(trace, mixed_spec)
            assert_engines_agree(trace, mixed_spec, config=BuildConfig(collective_mode="butterfly"))
            assert_engines_agree(trace, mixed_spec, mode="threshold")

    def test_monotone_in_scale(self, ring_trace, mixed_spec):
        build = build_graph(ring_trace)
        prev = None
        for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
            res = propagate(build, mixed_spec.scaled(scale))
            if prev is not None:
                for a, b in zip(prev, res.final_delay):
                    assert b >= a - 1e-9
            prev = res.final_delay

    def test_negative_scale_clamps_and_orders(self, ring_trace, const_spec):
        build = build_graph(ring_trace)
        res = propagate(build, const_spec.scaled(-1.0))
        assert res.max_delay <= 0.0  # speedup exploration (§7)
        assert res.clamped_edges > 0  # some intervals hit the zero floor
        from repro.core import check_correctness

        report = check_correctness(build, res)
        assert report.ok  # order still preserved

    def test_streaming_counts_each_clamp_once(self):
        """A clamped intra edge of a rooted collective counts once: the
        streaming engine feeds the collective template the intra path it
        already evaluated instead of sampling that edge a second time."""
        plan = [("compute", 1000), ("reduce", 0, 8), ("bcast", 1, 16), ("scan", 8)]
        trace = run(plan_program(plan), nprocs=4, seed=1).trace
        res = assert_engines_agree(trace, const_spec(scale=-5.0))
        assert res.clamped_edges > 0

    def test_bad_mode_rejected(self, ring_trace, const_spec):
        build = build_graph(ring_trace)
        with pytest.raises(ValueError, match="mode"):
            propagate(build, const_spec, mode="magic")


class TestStreamingWindow:
    def test_tiny_window_still_correct(self, ring_trace, const_spec):
        res = StreamingTraversal(const_spec, window=1).run(ring_trace)
        build = build_graph(ring_trace)
        expected = oracle.propagate(build, const_spec)
        for a, b in zip(res.final_delay, expected.final_delay):
            assert a == pytest.approx(b)

    def test_window_auto_expands_on_long_matching_distance(self, const_spec):
        """A rank far ahead of the floor gets capped; when progress then
        requires it, the window doubles with a warning (§4's tunable
        buffer)."""
        from repro.mpisim import Compute, Recv, Send

        def prog(me):
            if me.rank == 2:
                for _ in range(12):
                    yield Send(dest=0, nbytes=1)
            elif me.rank == 0:
                for _ in range(12):
                    yield Recv(source=2)
                yield Recv(source=1)
            else:
                yield Compute(100.0)
                yield Send(dest=0, nbytes=1)

        trace = run(prog, nprocs=3, seed=0).trace
        tr = StreamingTraversal(const_spec, window=3)
        res = tr.run(trace)
        assert any("window" in w for w in res.warnings)
        expected = oracle.propagate(build_graph(trace), const_spec)
        for a, b in zip(res.final_delay, expected.final_delay):
            assert a == pytest.approx(b)

    def test_window_validation(self, const_spec):
        with pytest.raises(ValueError):
            StreamingTraversal(const_spec, window=0)

    def test_mailbox_high_water_reported(self, stencil_trace, const_spec):
        tr = StreamingTraversal(const_spec)
        tr.run(stencil_trace)
        assert tr.max_mailbox > 0

    def test_corrupt_trace_stalls_cleanly(self, const_spec):
        # A send whose receive never appears -> deterministic stall error.
        r0 = [
            ev(0, 0, EventKind.INIT, 0.0, 10.0),
            ev(0, 1, EventKind.RECV, 20.0, 30.0, peer=1, tag=0),
            ev(0, 2, EventKind.FINALIZE, 40.0, 50.0),
        ]
        r1 = [
            ev(1, 0, EventKind.INIT, 0.0, 10.0),
            ev(1, 1, EventKind.FINALIZE, 40.0, 50.0),
        ]
        with pytest.raises(MatchError, match="stalled"):
            StreamingTraversal(const_spec).run(MemoryTrace([r0, r1]))


# ---------------------------------------------------------------------------
# Property-based: random valid runs through the full pipeline
# ---------------------------------------------------------------------------

_round = st.one_of(
    st.tuples(st.just("compute"), st.integers(100, 5000)),
    st.tuples(st.just("ring"), st.integers(0, 20_000)),
    st.tuples(st.just("xchg"), st.integers(0, 20_000)),
    st.tuples(st.just("nb"), st.integers(0, 20_000)),
    st.tuples(st.just("allreduce"), st.integers(0, 256)),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("bcast"), st.integers(0, 7), st.integers(0, 256)),
    st.tuples(st.just("reduce"), st.integers(0, 7), st.integers(0, 256)),
    st.tuples(st.just("scan"), st.integers(0, 256)),
    st.tuples(st.just("rscatter"), st.integers(0, 256)),
)

_plans = st.lists(_round, min_size=1, max_size=5)


#: One signature per family the property draws from: the vector
#: sampler's exponential and normal ziggurats (a negative-mean Normal
#: exercises the zero-floor clamp), its scalar-fallback families, an
#: empirical (measured) table and exact constants.
_FAMILIES = {
    "exponential": MachineSignature(
        os_noise=Exponential(60.0), latency=Exponential(30.0), per_byte=Constant(0.002)
    ),
    "normal": MachineSignature(
        os_noise=Normal(-20.0, 40.0), latency=Normal(-5.0, 25.0), per_byte=Constant(0.002)
    ),
    "lognormal": MachineSignature(os_noise=LogNormal(3.0, 0.5), latency=LogNormal(2.5, 0.4)),
    "gamma": MachineSignature(os_noise=Gamma(2.0, 30.0), latency=Gamma(0.7, 20.0)),
    "empirical": MachineSignature(
        os_noise=Empirical([0.0, 5.0, 40.0, 300.0]),
        latency=Empirical([10.0, 20.0, 80.0], interpolate=True),
    ),
    "constant": MachineSignature(
        os_noise=Constant(A), latency=Constant(L), per_byte=Constant(B)
    ),
}


@given(
    plan=_plans,
    p=st.integers(2, 5),
    seed=st.integers(0, 10**6),
    family=st.sampled_from(sorted(_FAMILIES)),
    mode=st.sampled_from(("additive", "threshold")),
)
@settings(max_examples=30, deadline=None)
def test_streaming_equals_incore_property(plan, p, seed, family, mode):
    """For ANY valid run, signature family and mode, every engine
    reproduces the object-graph oracle bit-for-bit (ABL2's invariant)."""
    trace = run(plan_program(plan), nprocs=p, seed=seed % 100).trace
    assert_engines_agree(trace, PerturbationSpec(_FAMILIES[family], seed=seed), mode=mode)


@given(plan=_plans, p=st.integers(2, 4), seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_order_preserved_property(plan, p, seed):
    """Nonnegative perturbations never reorder any rank's subevents (§4.3)."""
    from repro.core import check_correctness

    trace = run(plan_program(plan), nprocs=p, seed=seed % 100).trace
    spec = PerturbationSpec(
        MachineSignature(os_noise=Exponential(500.0), latency=Exponential(250.0)),
        seed=seed,
    )
    build = build_graph(trace)
    res = propagate(build, spec)
    report = check_correctness(build, res)
    assert report.ok, report.order_violations


@given(plan=_plans, p=st.integers(2, 4))
@settings(max_examples=15, deadline=None)
def test_zero_identity_property(plan, p):
    trace = run(plan_program(plan), nprocs=p, seed=0).trace
    build = build_graph(trace)
    res = propagate(build, PerturbationSpec(MachineSignature(), seed=0))
    assert all(d == 0.0 for d in res.final_delay)
