"""Tests for the per-primitive subgraph templates (Figs. 2–4)."""

import pytest

from repro.core.graph import DeltaKind, EdgeKind, Phase
from repro.core.matching import CollectiveGroup
from repro.core.primitives import (
    BuildConfig,
    collective_edges,
    gap_edge,
    intra_event_edge,
    sub,
    transfer_edges,
)
from repro.trace.events import EventKind, EventRecord


def ev(rank, seq, kind, t0=0.0, t1=10.0, **kw):
    return EventRecord(rank=rank, seq=seq, kind=kind, t_start=t0, t_end=t1, **kw)


CFG = BuildConfig()


class TestBuildConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BuildConfig(collective_mode="star")
        with pytest.raises(ValueError):
            BuildConfig(eager_threshold=-1)

    def test_models_ack(self):
        assert BuildConfig().models_ack(0)  # paper default: always sync
        cfg = BuildConfig(eager_threshold=100)
        assert not cfg.models_ack(100)
        assert cfg.models_ack(101)


class TestIntraEdges:
    def test_send_carries_os(self):
        et = intra_event_edge(ev(0, 1, EventKind.SEND, 5.0, 12.0))
        assert et.kind == EdgeKind.LOCAL
        assert et.weight == 7.0
        assert et.delta.kind == DeltaKind.OS  # δ_os1 of Eq. 1
        assert et.delta.rank == 0

    def test_recv_pure_precedence(self):
        et = intra_event_edge(ev(0, 1, EventKind.RECV))
        assert et.delta.kind == DeltaKind.NONE  # δ_os2 rides the data path

    @pytest.mark.parametrize("kind", [EventKind.ISEND, EventKind.IRECV, EventKind.WAIT])
    def test_nonblocking_pure_precedence(self, kind):
        # Eq. 2 note: immediate-return ends are not modified locally.
        assert intra_event_edge(ev(0, 1, kind)).delta.kind == DeltaKind.NONE

    @pytest.mark.parametrize("kind", [EventKind.REDUCE, EventKind.BCAST])
    def test_rooted_collectives_carry_local_os(self, kind):
        # Paper's Reduce: "a local edge ... labeled with local operating
        # system noise".
        assert intra_event_edge(ev(0, 1, kind)).delta.kind == DeltaKind.OS

    def test_unrooted_collectives_pure(self):
        # Fig. 4: noise is sampled inside l_δ, not on the local edge.
        assert intra_event_edge(ev(0, 1, EventKind.ALLREDUCE)).delta.kind == DeltaKind.NONE


class TestGapEdges:
    def test_weight_is_gap(self):
        a = ev(0, 0, EventKind.SEND, 0.0, 10.0)
        b = ev(0, 1, EventKind.RECV, 25.0, 30.0)
        et = gap_edge(a, b)
        assert et.weight == 15.0
        assert et.delta.kind == DeltaKind.OS
        assert et.src == sub(0, 0, Phase.END)
        assert et.dst == sub(0, 1, Phase.START)

    def test_rejects_nonconsecutive(self):
        a = ev(0, 0, EventKind.SEND)
        c = ev(0, 2, EventKind.RECV, 20.0, 25.0)
        with pytest.raises(ValueError, match="consecutive"):
            gap_edge(a, c)

    def test_rejects_negative_gap(self):
        a = ev(0, 0, EventKind.SEND, 0.0, 10.0)
        b = ev(0, 1, EventKind.RECV, 5.0, 15.0)
        with pytest.raises(ValueError, match="negative"):
            gap_edge(a, b)


class TestBlockingTransfer:
    def test_fig2_shape(self):
        """Blocking pair: data edge S(send)->E(recv) + ack E(recv)->E(send)."""
        send = ev(0, 1, EventKind.SEND, peer=1, tag=0, nbytes=128)
        recv = ev(1, 2, EventKind.RECV, peer=0, tag=0, nbytes=128)
        edges = transfer_edges(send, recv, None, None, CFG, chan_index=0)
        assert len(edges) == 2
        data, ack = edges
        assert data.src == sub(0, 1, Phase.START)
        assert data.dst == sub(1, 2, Phase.END)
        assert data.kind == EdgeKind.MESSAGE
        assert data.weight == 0.0  # §6: message edges weighted zero
        assert data.delta.kind == DeltaKind.TRANSFER_OS
        assert data.delta.nbytes == 128
        assert data.delta.rank == 1  # δ_os2 belongs to the receiver
        assert ack.src == sub(1, 2, Phase.END)
        assert ack.dst == sub(0, 1, Phase.END)
        assert ack.delta.kind == DeltaKind.LATENCY

    def test_eager_suppresses_ack(self):
        cfg = BuildConfig(eager_threshold=1024)
        send = ev(0, 1, EventKind.SEND, peer=1, tag=0, nbytes=128)
        recv = ev(1, 2, EventKind.RECV, peer=0, tag=0, nbytes=128)
        edges = transfer_edges(send, recv, None, None, cfg, chan_index=0)
        assert len(edges) == 1
        assert edges[0].delta.kind == DeltaKind.TRANSFER_OS

    def test_uids_differ_per_chan_index(self):
        send = ev(0, 1, EventKind.SEND, peer=1, tag=0, nbytes=8)
        recv = ev(1, 2, EventKind.RECV, peer=0, tag=0, nbytes=8)
        a = transfer_edges(send, recv, None, None, CFG, chan_index=0)[0]
        b = transfer_edges(send, recv, None, None, CFG, chan_index=1)[0]
        assert a.delta.uid != b.delta.uid


class TestNonblockingTransfer:
    def test_fig3_shape(self):
        """Isend/irecv + waits: data lands on the receiver's wait; ack is
        a roundtrip restarting at the posted irecv."""
        isend = ev(0, 1, EventKind.ISEND, peer=1, tag=0, nbytes=64, req=0)
        irecv = ev(1, 1, EventKind.IRECV, peer=0, tag=0, nbytes=64, req=0)
        edges = transfer_edges(isend, irecv, (0, 3), (1, 4), CFG, chan_index=0)
        assert len(edges) == 2
        data, ack = edges
        assert data.dst == sub(1, 4, Phase.END)  # receiver's wait END
        assert ack.src == sub(1, 1, Phase.END)  # irecv END (posting point)
        assert ack.dst == sub(0, 3, Phase.END)  # sender's wait END
        assert ack.delta.kind == DeltaKind.ROUNDTRIP

    def test_uncompleted_isend_drops_ack(self):
        isend = ev(0, 1, EventKind.ISEND, peer=1, tag=0, nbytes=64, req=0)
        recv = ev(1, 1, EventKind.RECV, peer=0, tag=0, nbytes=64)
        edges = transfer_edges(isend, recv, None, None, CFG, chan_index=0)
        assert len(edges) == 1  # §4.3: nothing anchors the sender's delay

    def test_uncompleted_irecv_drops_data(self):
        send = ev(0, 1, EventKind.SEND, peer=1, tag=0, nbytes=64)
        irecv = ev(1, 1, EventKind.IRECV, peer=0, tag=0, nbytes=64, req=0)
        edges = transfer_edges(send, irecv, None, None, CFG, chan_index=0)
        kinds = [e.delta.kind for e in edges]
        assert DeltaKind.TRANSFER_OS not in kinds  # data dropped
        assert DeltaKind.ROUNDTRIP in kinds  # ack still anchored at posting

    def test_sendrecv_ack_restarts_at_start(self):
        """Mutual sendrecv must not create END-END cycles."""
        a = ev(
            0, 1, EventKind.SENDRECV,
            peer=1, tag=0, nbytes=32, recv_peer=1, recv_tag=0, recv_nbytes=32,
        )
        b = ev(
            1, 1, EventKind.SENDRECV,
            peer=0, tag=0, nbytes=32, recv_peer=0, recv_tag=0, recv_nbytes=32,
        )
        edges = transfer_edges(a, b, None, None, CFG, chan_index=0)
        ack = [e for e in edges if e.delta.kind == DeltaKind.ROUNDTRIP][0]
        assert ack.src == sub(1, 1, Phase.START)


def group(kind, p, root=-1, nbytes=0, ordinal=0):
    return CollectiveGroup(
        ordinal=ordinal,
        kind=kind,
        root=root,
        nbytes=nbytes,
        members=tuple((r, 3) for r in range(p)),
    )


class TestCollectiveTemplates:
    def test_fig4_allreduce_hub(self):
        edges = collective_edges(group(EventKind.ALLREDUCE, 4, nbytes=64), 4, CFG)
        fanin = [e for e in edges if e.delta.kind == DeltaKind.COLL_FANIN]
        fanout = [e for e in edges if e.delta.kind == DeltaKind.NONE]
        assert len(fanin) == 4 and len(fanout) == 4
        for e in fanin:
            assert e.dst == ("hub", 0)
            assert e.delta.rounds == 2  # ceil(log2 4)
            assert e.delta.nbytes == 64
        for e in fanout:
            assert e.src == ("hub", 0)

    def test_reduce_simplification(self):
        """Paper's three Reduce modifications: single-latency fan-in,
        unlabelled fan-out from the root's END."""
        edges = collective_edges(group(EventKind.REDUCE, 4, root=2, nbytes=8), 4, CFG)
        fanin = [e for e in edges if e.delta.kind == DeltaKind.LATENCY]
        fanout = [e for e in edges if e.delta.kind == DeltaKind.NONE]
        assert len(fanin) == 3 and len(fanout) == 3
        for e in fanin:
            assert e.dst == sub(2, 3, Phase.END)
        for e in fanout:
            assert e.src == sub(2, 3, Phase.END)

    def test_bcast_fanout(self):
        edges = collective_edges(group(EventKind.BCAST, 5, root=1, nbytes=16), 5, CFG)
        assert len(edges) == 4
        for e in edges:
            assert e.src == sub(1, 3, Phase.START)
            assert e.delta.kind == DeltaKind.COLL_FANIN
            assert e.delta.rounds == 3  # ceil(log2 5)

    def test_butterfly_structure(self):
        cfg = BuildConfig(collective_mode="butterfly")
        p = 4
        edges = collective_edges(group(EventKind.ALLREDUCE, p, nbytes=8), p, cfg)
        rounds = 2
        msg = [e for e in edges if e.kind == EdgeKind.MESSAGE]
        local = [e for e in edges if e.kind == EdgeKind.LOCAL]
        assert len(msg) == p * rounds  # dissemination exchange per round
        assert len(local) == p + p * rounds + p  # in + per-round OS + out

    def test_butterfly_only_for_unrooted(self):
        cfg = BuildConfig(collective_mode="butterfly")
        edges = collective_edges(group(EventKind.REDUCE, 4, root=0), 4, cfg)
        # Rooted kinds fall back to the hub-family template.
        assert all(e.delta.kind != DeltaKind.TRANSFER for e in edges)

    def test_all_uids_unique_within_collective(self):
        for mode in ("hub", "butterfly"):
            cfg = BuildConfig(collective_mode=mode)
            edges = collective_edges(group(EventKind.BARRIER, 8), 8, cfg)
            uids = [e.delta.uid for e in edges if e.delta.kind != DeltaKind.NONE]
            assert len(uids) == len(set(uids))

    def test_rejects_non_collective(self):
        with pytest.raises(ValueError):
            collective_edges(group(EventKind.SEND, 2), 2, CFG)
