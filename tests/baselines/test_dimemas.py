"""Tests for the Dimemas-style replay baseline (§1.1)."""

import pytest

from repro.apps import (
    AllreduceIterParams,
    StencilParams,
    TokenRingParams,
    allreduce_iter,
    stencil1d,
    token_ring,
)
from repro.baselines import ReplayParams, replay
from repro.mpisim import (
    Compute,
    Irecv,
    Isend,
    Machine,
    NetworkModel,
    Recv,
    Send,
    Sendrecv,
    Waitall,
    run,
)

NET = NetworkModel(
    latency=1000.0, bandwidth=2.0, send_overhead=200.0, recv_overhead=200.0, eager_threshold=8192
)
SAME = ReplayParams(
    latency=1000.0, bandwidth=2.0, send_overhead=200.0, recv_overhead=200.0, eager_threshold=8192
)


def machine(p):
    return Machine(nprocs=p, network=NET)


APPS = [
    ("token_ring", token_ring(TokenRingParams(traversals=3)), 6),
    ("stencil", stencil1d(StencilParams(iterations=4)), 5),
    ("allreduce_iter", allreduce_iter(AllreduceIterParams(iterations=4)), 6),
]


class TestIdentityReplay:
    """Replaying under the generating machine's parameters must
    reproduce the original timing exactly — the replay semantics mirror
    the engine's protocol rules."""

    @pytest.mark.parametrize("name,prog,p", APPS, ids=[a[0] for a in APPS])
    def test_identity(self, name, prog, p):
        res = run(prog, machine=machine(p), seed=0)
        rp = replay(res.trace, SAME)
        assert rp.makespan == pytest.approx(rp.original_makespan, rel=1e-9)
        for a, b in zip(rp.finish_times, rp.original_finish_times):
            assert a == pytest.approx(b, rel=1e-9)

    def test_identity_with_sendrecv(self):
        def prog(me):
            for _ in range(3):
                yield Compute(2_000.0)
                yield Sendrecv(
                    dest=(me.rank + 1) % me.size, send_nbytes=64, source=(me.rank - 1) % me.size
                )

        res = run(prog, machine=machine(4), seed=0)
        rp = replay(res.trace, SAME)
        assert rp.makespan == pytest.approx(rp.original_makespan, rel=1e-9)

    def test_identity_rendezvous(self):
        def prog(me):
            if me.rank == 0:
                yield Send(dest=1, nbytes=50_000)  # above threshold
            else:
                yield Compute(5_000.0)
                yield Recv(source=0)

        res = run(prog, machine=machine(2), seed=0)
        rp = replay(res.trace, SAME)
        assert rp.makespan == pytest.approx(rp.original_makespan, rel=1e-9)

    def test_identity_nonblocking(self):
        def prog(me):
            p = me.size
            left, right = (me.rank - 1) % p, (me.rank + 1) % p
            for _ in range(3):
                r1 = yield Irecv(source=left, tag=1)
                s1 = yield Isend(dest=right, nbytes=20_000, tag=1)  # rendezvous
                yield Compute(3_000.0)
                yield Waitall([r1, s1])

        res = run(prog, machine=machine(4), seed=0)
        rp = replay(res.trace, SAME)
        assert rp.makespan == pytest.approx(rp.original_makespan, rel=1e-9)


class TestWhatIf:
    @pytest.fixture(scope="class")
    def ring_trace(self):
        return run(token_ring(TokenRingParams(traversals=3)), machine=machine(6), seed=0).trace

    def test_faster_network_speeds_up(self, ring_trace):
        fast = replay(
            ring_trace,
            ReplayParams(latency=100.0, bandwidth=20.0, send_overhead=50.0, recv_overhead=50.0),
        )
        assert fast.makespan < fast.original_makespan
        assert fast.speedup > 1.0

    def test_slower_network_slows_down(self, ring_trace):
        slow = replay(ring_trace, ReplayParams(latency=50_000.0, bandwidth=0.1))
        assert slow.makespan > slow.original_makespan

    def test_cpu_factor_scales_compute(self, ring_trace):
        base = replay(ring_trace, SAME)
        doubled = replay(
            ring_trace,
            ReplayParams(
                latency=1000.0,
                bandwidth=2.0,
                send_overhead=200.0,
                recv_overhead=200.0,
                eager_threshold=8192,
                cpu_factor=2.0,
            ),
        )
        # Compute dominates the ring: makespan roughly doubles, and it must
        # grow by at least the serialized compute total.
        assert doubled.makespan > 1.5 * base.makespan

    def test_latency_sensitivity_is_linear_in_messages(self, ring_trace):
        a = replay(ring_trace, ReplayParams(latency=1000.0, bandwidth=2.0))
        b = replay(ring_trace, ReplayParams(latency=2000.0, bandwidth=2.0))
        # 6 ranks x 3 traversals hops on the critical chain + final hop.
        per_hop = (b.makespan - a.makespan) / 1000.0
        assert per_hop == pytest.approx(19, abs=1.0)

    def test_deterministic(self, ring_trace):
        a = replay(ring_trace, SAME)
        b = replay(ring_trace, SAME)
        assert a.finish_times == b.finish_times


class TestValidation:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            ReplayParams(latency=-1.0)
        with pytest.raises(ValueError):
            ReplayParams(bandwidth=0.0)
        with pytest.raises(ValueError):
            ReplayParams(cpu_factor=0.0)
