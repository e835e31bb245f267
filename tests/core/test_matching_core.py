"""Tests for order-based cross-rank event matching (§4.1)."""

import pytest

from repro.core import BuildConfig, PerturbationSpec, StreamingTraversal, build_graph
from repro.core.matching import MatchError, match_events
from repro.noise import Constant, MachineSignature
from repro.trace.events import EventKind, EventRecord
from repro.trace.reader import MemoryTrace


def ev(rank, seq, kind, t0=None, t1=None, **kw):
    t0 = float(seq * 10) if t0 is None else t0
    t1 = t0 + 5.0 if t1 is None else t1
    return EventRecord(rank=rank, seq=seq, kind=kind, t_start=t0, t_end=t1, **kw)


class TestPairwise:
    def test_single_pair(self):
        per_rank = [
            [ev(0, 0, EventKind.SEND, peer=1, tag=0)],
            [ev(1, 0, EventKind.RECV, peer=0, tag=0)],
        ]
        m = match_events(per_rank)
        assert m.transfer_of[(0, 0)] == (1, 0)
        assert m.reverse_transfer_of[(1, 0)] == (0, 0)
        assert m.transfer_index[(0, 0)] == 0

    def test_fifo_on_channel(self):
        """§4.1: the n-th send matches the n-th receive on a channel."""
        per_rank = [
            [
                ev(0, 0, EventKind.SEND, peer=1, tag=0, nbytes=1),
                ev(0, 1, EventKind.SEND, peer=1, tag=0, nbytes=2),
            ],
            [
                ev(1, 0, EventKind.RECV, peer=0, tag=0, nbytes=1),
                ev(1, 1, EventKind.RECV, peer=0, tag=0, nbytes=2),
            ],
        ]
        m = match_events(per_rank)
        assert m.transfer_of[(0, 0)] == (1, 0)
        assert m.transfer_of[(0, 1)] == (1, 1)
        assert m.transfer_index[(0, 1)] == 1

    def test_tags_separate_channels(self):
        per_rank = [
            [
                ev(0, 0, EventKind.SEND, peer=1, tag=5),
                ev(0, 1, EventKind.SEND, peer=1, tag=6),
            ],
            [
                # Posted in opposite tag order: tag matching must pair them.
                ev(1, 0, EventKind.RECV, peer=0, tag=6),
                ev(1, 1, EventKind.RECV, peer=0, tag=5),
            ],
        ]
        m = match_events(per_rank)
        assert m.transfer_of[(0, 0)] == (1, 1)
        assert m.transfer_of[(0, 1)] == (1, 0)

    def test_unpaired_send_rejected(self):
        per_rank = [[ev(0, 0, EventKind.SEND, peer=1, tag=0)], []]
        with pytest.raises(MatchError, match="unpaired"):
            match_events(per_rank)

    def test_unpaired_recv_rejected(self):
        per_rank = [[], [ev(1, 0, EventKind.RECV, peer=0, tag=0)]]
        with pytest.raises(MatchError, match="unpaired"):
            match_events(per_rank)

    def test_sendrecv_contributes_both_halves(self):
        per_rank = [
            [
                ev(
                    0, 0, EventKind.SENDRECV,
                    peer=1, tag=0, nbytes=4, recv_peer=1, recv_tag=1, recv_nbytes=8,
                )
            ],
            [
                ev(
                    1, 0, EventKind.SENDRECV,
                    peer=0, tag=1, nbytes=8, recv_peer=0, recv_tag=0, recv_nbytes=4,
                )
            ],
        ]
        m = match_events(per_rank)
        # 0's send half -> 1's recv half, and vice versa.
        assert m.transfer_of[(0, 0)] == (1, 0)
        assert m.transfer_of[(1, 0)] == (0, 0)


def framed(rank, inner):
    """INIT, the ``(kind, fields)`` events in order, FINALIZE."""
    kinds = [(EventKind.INIT, {})] + inner + [(EventKind.FINALIZE, {})]
    return [ev(rank, seq, kind, **kw) for seq, (kind, kw) in enumerate(kinds)]


def pair_trace(nonblocking, send_nbytes, recv_nbytes):
    """Rank 0 sends ``send_nbytes`` to rank 1, which receives ``recv_nbytes``
    (blocking pair, or ISEND/IRECV each retired by a WAIT)."""
    if nonblocking:
        sender = [
            (EventKind.ISEND, dict(peer=1, tag=3, nbytes=send_nbytes, req=1)),
            (EventKind.WAIT, dict(reqs=(1,), completed=(1,))),
        ]
        receiver = [
            (EventKind.IRECV, dict(peer=0, tag=3, nbytes=recv_nbytes, req=2)),
            (EventKind.WAIT, dict(reqs=(2,), completed=(2,))),
        ]
    else:
        sender = [(EventKind.SEND, dict(peer=1, tag=3, nbytes=send_nbytes))]
        receiver = [(EventKind.RECV, dict(peer=0, tag=3, nbytes=recv_nbytes))]
    return MemoryTrace([framed(0, sender), framed(1, receiver)])


class TestOneSizePerPair:
    """A matched send and receive carry one size: both engines reject a
    pair that disagrees, naming the receive (rank 1, event #1)."""

    @pytest.mark.parametrize("eager", [None, 1000])
    @pytest.mark.parametrize("send_nbytes,recv_nbytes", [(4000, 100), (100, 4000)])
    @pytest.mark.parametrize("nonblocking", [False, True])
    def test_both_engines_reject(self, nonblocking, send_nbytes, recv_nbytes, eager):
        trace = pair_trace(nonblocking, send_nbytes, recv_nbytes)
        config = BuildConfig(eager_threshold=eager)
        spec = PerturbationSpec(MachineSignature(per_byte=Constant(1.0)), seed=0)
        for engine in (
            lambda: build_graph(trace, config),
            lambda: StreamingTraversal(spec, config=config).run(trace),
        ):
            with pytest.raises(MatchError) as exc:
                engine()
            assert (exc.value.code, exc.value.rank, exc.value.seq) == ("unmatched-endpoint", 1, 1)
            assert f"receives {recv_nbytes} B" in str(exc.value)

    def test_sendrecv_receive_half_compares_recv_nbytes(self):
        def sendrecv(rank, nbytes, recv_nbytes):
            return ev(
                rank, 0, EventKind.SENDRECV, peer=1 - rank, tag=0, nbytes=nbytes,
                recv_peer=1 - rank, recv_tag=0, recv_nbytes=recv_nbytes,
            )

        match_events([[sendrecv(0, 4, 8)], [sendrecv(1, 8, 4)]])
        with pytest.raises(MatchError) as exc:
            match_events([[sendrecv(0, 4, 8)], [sendrecv(1, 8, 5)]])
        assert (exc.value.code, exc.value.rank, exc.value.seq) == ("unmatched-endpoint", 1, 0)


class TestCompletions:
    def test_wait_links_to_nonblocking(self):
        per_rank = [
            [
                ev(0, 0, EventKind.ISEND, peer=1, tag=0, req=7),
                ev(0, 1, EventKind.WAIT, reqs=(7,), completed=(7,)),
            ],
            [ev(1, 0, EventKind.RECV, peer=0, tag=0)],
        ]
        m = match_events(per_rank)
        assert m.completion_of[(0, 0)] == (0, 1)
        assert not m.uncompleted

    def test_waitall_links_many(self):
        per_rank = [
            [
                ev(0, 0, EventKind.IRECV, peer=1, tag=0, req=0),
                ev(0, 1, EventKind.IRECV, peer=1, tag=1, req=1),
                ev(0, 2, EventKind.WAITALL, reqs=(0, 1), completed=(0, 1)),
            ],
            [
                ev(1, 0, EventKind.SEND, peer=0, tag=0),
                ev(1, 1, EventKind.SEND, peer=0, tag=1),
            ],
        ]
        m = match_events(per_rank)
        assert m.completion_of[(0, 0)] == (0, 2)
        assert m.completion_of[(0, 1)] == (0, 2)

    def test_uncompleted_recorded(self):
        per_rank = [
            [ev(0, 0, EventKind.ISEND, peer=1, tag=0, req=3)],
            [ev(1, 0, EventKind.RECV, peer=0, tag=0)],
        ]
        m = match_events(per_rank)
        assert m.uncompleted == [(0, 0)]

    def test_unknown_completion_rejected(self):
        per_rank = [[ev(0, 0, EventKind.WAIT, reqs=(9,), completed=(9,))]]
        with pytest.raises(MatchError, match="unknown"):
            match_events(per_rank)


class TestCollectives:
    def test_groups_by_ordinal(self):
        per_rank = [
            [ev(r, 0, EventKind.ALLREDUCE, nbytes=64, coll_seq=0)] for r in range(3)
        ]
        m = match_events(per_rank)
        assert len(m.collectives) == 1
        g = m.collectives[0]
        assert g.kind == EventKind.ALLREDUCE
        assert g.members == ((0, 0), (1, 0), (2, 0))
        assert g.nbytes == 64

    def test_fallback_ordinal_by_count(self):
        # coll_seq=-1: groups by per-rank collective order instead.
        per_rank = [
            [
                ev(r, 0, EventKind.BARRIER, coll_seq=-1),
                ev(r, 1, EventKind.ALLREDUCE, nbytes=8, coll_seq=-1),
            ]
            for r in range(2)
        ]
        m = match_events(per_rank)
        assert [g.kind for g in m.collectives] == [EventKind.BARRIER, EventKind.ALLREDUCE]

    def test_kind_mismatch_rejected(self):
        per_rank = [
            [ev(0, 0, EventKind.BARRIER, coll_seq=0)],
            [ev(1, 0, EventKind.ALLREDUCE, coll_seq=0)],
        ]
        with pytest.raises(MatchError, match="called"):
            match_events(per_rank)

    def test_root_mismatch_rejected(self):
        per_rank = [
            [ev(0, 0, EventKind.BCAST, root=0, coll_seq=0)],
            [ev(1, 0, EventKind.BCAST, root=1, coll_seq=0)],
        ]
        with pytest.raises(MatchError, match="root mismatch"):
            match_events(per_rank)

    def test_missing_rank_rejected(self):
        per_rank = [
            [ev(0, 0, EventKind.BARRIER, coll_seq=0)],
            [],
        ]
        with pytest.raises(MatchError, match="missing ranks"):
            match_events(per_rank)


class TestSimulatedTraces:
    def test_ring_fully_matched(self, ring_trace):
        per_rank = ring_trace.load_all()
        m = match_events(per_rank)
        sends = sum(
            1 for evs in per_rank for e in evs if e.kind in (EventKind.SEND, EventKind.ISEND)
        )
        assert m.link_count() == sends
        assert len(m.collectives) == 1  # the final allreduce

    def test_stencil_completions_all_linked(self, stencil_trace):
        per_rank = stencil_trace.load_all()
        m = match_events(per_rank)
        nonblocking = sum(
            1
            for evs in per_rank
            for e in evs
            if e.kind in (EventKind.ISEND, EventKind.IRECV)
        )
        assert len(m.completion_of) == nonblocking
        assert not m.uncompleted
