"""Shared fixtures and helpers for the test suite.

Traced runs are expensive relative to assertions, so commonly used
traces are produced once per session.  The ``plan_program`` helper turns
a declarative "round plan" into a rank program — the basis for the
property-based tests, because any plan yields a *valid* complete run by
construction (all ranks derive identical structure).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BuildConfig, PerturbationSpec, StreamingTraversal, build_graph, propagate
from repro.testing import oracle
from repro.mpisim import (
    ANY_SOURCE,
    ANY_TAG,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Irecv,
    Isend,
    RankInfo,
    Recv,
    Reduce,
    ReduceScatter,
    Scan,
    Send,
    Sendrecv,
    Wait,
    Waitall,
    run,
)
from repro.noise import Constant, Exponential, MachineSignature


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def const_signature():
    """Deterministic signature: exact-arithmetic checks."""
    return MachineSignature(
        os_noise=Constant(100.0),
        latency=Constant(50.0),
        per_byte=Constant(0.01),
        name="const",
    )


@pytest.fixture
def mixed_signature():
    """Random-distribution signature: statistical checks."""
    return MachineSignature(
        os_noise=Exponential(80.0),
        latency=Exponential(40.0),
        per_byte=Constant(0.005),
        name="mixed",
    )


@pytest.fixture
def const_spec(const_signature):
    return PerturbationSpec(const_signature, seed=7)


@pytest.fixture
def mixed_spec(mixed_signature):
    return PerturbationSpec(mixed_signature, seed=7)


# ---------------------------------------------------------------------------
# Canned traced runs (session-scoped: read-only from tests)
# ---------------------------------------------------------------------------


def _ring_program(me: RankInfo):
    p = me.size
    for _ in range(3):
        yield Compute(10_000)
        if me.rank == 0:
            yield Send(dest=1, nbytes=512)
            yield Recv(source=p - 1)
        else:
            yield Recv(source=me.rank - 1)
            yield Send(dest=(me.rank + 1) % p, nbytes=512)
    yield Allreduce(nbytes=64)


def _stencil_program(me: RankInfo):
    p = me.size
    left, right = (me.rank - 1) % p, (me.rank + 1) % p
    for _ in range(3):
        r1 = yield Irecv(source=left, tag=1)
        r2 = yield Irecv(source=right, tag=2)
        s1 = yield Isend(dest=right, nbytes=256, tag=1)
        s2 = yield Isend(dest=left, nbytes=256, tag=2)
        yield Compute(5_000)
        yield Waitall([r1, r2, s1, s2])
    yield Reduce(root=0, nbytes=8)


@pytest.fixture(scope="session")
def ring_trace():
    return run(_ring_program, nprocs=4, seed=3).trace


@pytest.fixture(scope="session")
def stencil_trace():
    return run(_stencil_program, nprocs=5, seed=3).trace


# ---------------------------------------------------------------------------
# Declarative random-plan programs (property tests)
# ---------------------------------------------------------------------------


WILDCARD_ROUNDS = ("fanin", "ifanin", "anytag", "pinned")


def _wildcard_round(me: RankInfo, kind: str, nbytes: int):
    """One wildcard round form of :func:`plan_program`, received on rank 0."""
    p = me.size
    if kind == "fanin":
        if me.rank == 0:
            for _ in range(p - 1):
                yield Recv(source=ANY_SOURCE, tag=11)
        else:
            yield Send(dest=0, nbytes=nbytes * me.rank, tag=11)
    elif kind == "ifanin":
        if me.rank == 0:
            reqs = []
            for _ in range(p - 1):
                reqs.append((yield Irecv(source=ANY_SOURCE, tag=13)))
            for req in reqs:
                yield Wait(req)
        else:
            req = yield Isend(dest=0, nbytes=nbytes * me.rank, tag=13)
            yield Wait(req)
    elif kind == "anytag":
        if me.rank == 0:
            for _ in range(2, p, 2):
                yield Recv(source=ANY_SOURCE, tag=20)
            for _ in range(1, p, 2):
                yield Recv(source=ANY_SOURCE, tag=ANY_TAG)
        else:
            yield Send(dest=0, nbytes=nbytes * me.rank, tag=20 + me.rank * (me.rank % 2))
    elif kind == "pinned":
        if me.rank == 0:
            for _ in range(p - 2):
                yield Recv(source=ANY_SOURCE, tag=12)
            yield Recv(source=p - 1, tag=12)
        else:
            if me.rank == p - 1:
                yield Compute(1_000_000)
            yield Send(dest=0, nbytes=nbytes, tag=12)


def plan_program(plan: list[tuple]):
    """Build a rank program from a round plan.

    Every rank executes the same plan, so the run is always valid.
    Round forms:

    - ``("compute", base_cycles)`` — per-rank work ``base * (rank+1)``
    - ``("ring", nbytes)`` — blocking token pass 0→1→...→0
    - ``("xchg", nbytes)`` — neighbor sendrecv ring
    - ``("nb", nbytes)`` — nonblocking bidirectional halo + waitall
    - ``("allreduce", nbytes)`` / ``("barrier",)`` / ``("bcast", root, nbytes)``
      / ``("reduce", root, nbytes)`` / ``("scan", nbytes)`` /
      ``("rscatter", nbytes)``

    Wildcard forms, all received on rank 0 (in ``fanin``, ``ifanin`` and
    ``anytag`` rank ``r`` sends ``nbytes * r`` bytes, so a swap is
    observable):

    - ``("fanin", nbytes)`` — every other rank sends once; rank 0 posts
      one ``ANY_SOURCE`` receive per sender
    - ``("ifanin", nbytes)`` — the same with ``IRECV(ANY_SOURCE)`` + ``WAIT``
    - ``("anytag", nbytes)`` — even ranks send tag 20, odd ranks tag
      ``20 + rank``; rank 0 takes the tag-20 messages with ``ANY_SOURCE``
      receives, then the rest with ``ANY_SOURCE``/``ANY_TAG`` ones
    - ``("pinned", nbytes)`` — rank 0 posts ``ANY_SOURCE`` receives for all
      but the last rank, then a receive pinned to the last rank, which
      sends only after a long compute: a wildcard could have stolen the
      pinned receive's message (a deadlock chain)

    Every wildcard round ends with a barrier, and rank 0 takes all of the
    round's messages before it enters the barrier.  So no message crosses
    into another round: a wildcard receive never takes a later round's
    message, and a ``ring``/``xchg`` receive, which takes any tag from
    its pinned source, never takes a wildcard round's.
    """

    def program(me: RankInfo):
        p = me.size
        for round_ in plan:
            kind = round_[0]
            if kind == "compute":
                yield Compute(round_[1] * (me.rank + 1))
            elif kind == "ring" and p > 1:
                nxt, prv = (me.rank + 1) % p, (me.rank - 1) % p
                if me.rank == 0:
                    yield Send(dest=nxt, nbytes=round_[1])
                    yield Recv(source=prv)
                else:
                    yield Recv(source=prv)
                    yield Send(dest=nxt, nbytes=round_[1])
            elif kind == "xchg" and p > 1:
                yield Sendrecv(
                    dest=(me.rank + 1) % p,
                    send_nbytes=round_[1],
                    source=(me.rank - 1) % p,
                )
            elif kind == "nb" and p > 1:
                left, right = (me.rank - 1) % p, (me.rank + 1) % p
                r1 = yield Irecv(source=left, tag=3)
                r2 = yield Irecv(source=right, tag=4)
                s1 = yield Isend(dest=right, nbytes=round_[1], tag=3)
                s2 = yield Isend(dest=left, nbytes=round_[1], tag=4)
                yield Compute(1_000)
                yield Waitall([r1, r2, s1, s2])
            elif kind == "allreduce":
                yield Allreduce(nbytes=round_[1])
            elif kind == "barrier":
                yield Barrier()
            elif kind == "bcast":
                yield Bcast(root=round_[1] % p, nbytes=round_[2])
            elif kind == "reduce":
                yield Reduce(root=round_[1] % p, nbytes=round_[2])
            elif kind == "scan":
                yield Scan(nbytes=round_[1])
            elif kind == "rscatter":
                yield ReduceScatter(nbytes=round_[1])
            elif kind in WILDCARD_ROUNDS and p > 1:
                yield from _wildcard_round(me, kind, round_[1])
                yield Barrier()

    return program


#: The ``TraversalResult`` fields the analyses read: every in-core
#: engine must reproduce the oracle's bit for bit.
INCORE_FIELDS = ("final_delay", "final_local_times", "clamped_edges", "node_delay", "edge_delta")


def assert_incore_equal(result, reference, what: str) -> None:
    """Assert ``result`` equals ``reference`` on every :data:`INCORE_FIELDS` field."""
    for name in INCORE_FIELDS:
        assert getattr(result, name) == getattr(reference, name), f"{what}: {name} diverged"


def assert_engines_agree(trace, spec, config: BuildConfig | None = None, mode: str = "additive"):
    """Assert every engine agrees bit-for-bit with the object-graph
    oracle and return the oracle's result.

    The public ``propagate``, and the coarse and flat plans, on every
    field the analyses read; the streaming engine on what it reports
    (final delays and times, clamp counts).
    """
    from repro.core import compiled_plan

    config = config or BuildConfig()
    build = build_graph(trace, config)
    reference = oracle.propagate(build, spec, mode=mode)
    assert_incore_equal(propagate(build, spec, mode=mode), reference, "propagate")
    for coarsen in ("on", "off"):
        plan = compiled_plan(build, coarsen)
        assert_incore_equal(plan.propagate_one(spec, mode=mode), reference, f"coarsen={coarsen}")
    streaming = StreamingTraversal(spec, config=config, mode=mode).run(trace)
    assert streaming.final_delay == reference.final_delay, "streaming engine diverged"
    assert streaming.final_local_times == reference.final_local_times
    assert streaming.clamped_edges == reference.clamped_edges
    return reference
