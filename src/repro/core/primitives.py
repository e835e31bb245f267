"""Per-primitive subgraph templates (§3, Figs. 2–4).

The paper embeds the blocking semantics of every message-passing
primitive in the graph itself.  Each template below returns *edge
specifications* between *endpoint descriptors*; the in-core builder
materializes them as graph nodes/edges, and the streaming traversal
evaluates the same functions on the fly (``transfer_deltas`` for each
half of a transfer, ``collective_edges`` per collective) — both
therefore encode identical semantics and, through the deterministic
``uid`` scheme, sample identical deltas.

Endpoint descriptors (plain tuples, hashable):

* ``("sub", rank, seq, phase)`` — a real subevent;
* ``("hub", ordinal)`` — the virtual hub of collective #ordinal (Fig. 4);
* ``("bfly", ordinal, rank, k)`` — round-``k`` virtual node of the
  explicit-butterfly expansion for that rank.

Template catalogue:

``intra_event_edge``
    S→E of one event.  Blocking SEND carries δ_os1 (Eq. 1 second term);
    rooted collectives carry the per-rank local-noise edge the paper's
    Reduce description requires; everything else is pure precedence.
``gap_edge``
    E(prev)→S(next) compute-phase edge; carries one δ_os sample — the
    paper's primary noise-attachment point (§4.2, §5.1).
``chain_edges``
    One rank's whole chain (every ``intra_event_edge`` and
    ``gap_edge``) laid out with array ops over the rank's
    :class:`~repro.trace.columns.EventColumns`: the in-core builder's
    form of the two templates above, which the streaming traversal
    applies one event at a time.
``transfer_deltas`` / ``transfer_edges``
    Fig. 2 (blocking) and Fig. 3 (nonblocking + waits): a data-path edge
    carrying δ_λ1 + δ_t(d) + δ_os2 into the receive-completion subevent,
    and an acknowledgement edge carrying δ_λ2 (or a rendezvous round
    trip, after a posted receive) back into the send-completion
    subevent (modeling the synchronous blocking send of Eq. 1;
    suppressed for messages at or below an eager threshold when one is
    configured).  ``transfer_deltas`` is the one definition of a
    transfer's perturbations; ``transfer_edges`` places its endpoints.
    A matched send and receive carry one size (matching rejects a pair
    that disagrees), so either side's ``nbytes`` names it.
``collective_edges``
    Fig. 4 hub approximation (fan-in edges labelled l_δ with
    ceil(log2 p) samples, unlabelled fan-out carrying the max), the
    paper's simplified Reduce variant, our mirrored Bcast variant, and
    the explicit O(p log p) butterfly expansion the paper mentions as
    exact-but-wasteful (ABL1 ablates hub vs butterfly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro._util import ilog2_ceil
from repro.core.diagnostics import DiagnosticError
from repro.core.graph import DeltaKind, DeltaSpec, EdgeKind, NO_DELTA, Phase
from repro.core.matching import CollectiveGroup
from repro.trace.events import EventKind, EventRecord, ROOTED_COLLECTIVES

__all__ = [
    "EdgeT",
    "BuildConfig",
    "sub",
    "hub",
    "bfly",
    "intra_event_edge",
    "gap_edge",
    "chain_edges",
    "INTRA_OS_KINDS",
    "transfer_deltas",
    "transfer_edges",
    "collective_edges",
    "UNROOTED_HUB_KINDS",
    "BCAST_STYLE",
    "REDUCE_STYLE",
    "PREFIX_STYLE",
]

# Collective families (see module docstring).
UNROOTED_HUB_KINDS = frozenset(
    {
        EventKind.ALLREDUCE,
        EventKind.BARRIER,
        EventKind.ALLGATHER,
        EventKind.ALLTOALL,
        EventKind.REDUCE_SCATTER,
    }
)
BCAST_STYLE = frozenset({EventKind.BCAST, EventKind.SCATTER})
REDUCE_STYLE = frozenset({EventKind.REDUCE, EventKind.GATHER})
PREFIX_STYLE = frozenset({EventKind.SCAN})
#: Kinds whose S→E edge carries a δ_os sample (see ``intra_event_edge``).
INTRA_OS_KINDS = frozenset({EventKind.SEND}) | ROOTED_COLLECTIVES | PREFIX_STYLE

# uid namespaces (first element) — keep distinct per template so two edges
# never share a sampling stream.
_UID_INTRA = 1
_UID_GAP = 2
_UID_DATA = 3
_UID_ACK = 4
_UID_FANIN = 5
_UID_BCASTOUT = 6
_UID_BFLY_LOCAL = 7
_UID_BFLY_MSG = 8


_START, _END = int(Phase.START), int(Phase.END)


def sub(rank: int, seq: int, phase: Phase) -> tuple:
    return ("sub", rank, seq, int(phase))


def hub(ordinal: int) -> tuple:
    return ("hub", ordinal)


def bfly(ordinal: int, rank: int, k: int) -> tuple:
    return ("bfly", ordinal, rank, k)


class EdgeT(NamedTuple):
    """One edge specification produced by a template (a named tuple:
    templates make one per edge, so construction must be cheap)."""

    src: tuple
    dst: tuple
    kind: EdgeKind
    weight: float
    delta: DeltaSpec
    label: str = ""


@dataclass(frozen=True)
class BuildConfig:
    """Knobs shared by the builder and the streaming traversal.

    collective_mode:
        ``"hub"`` — Fig. 4 approximation (default); ``"butterfly"`` —
        explicit O(p log p) expansion for the unrooted collectives.
    eager_threshold:
        When set, sends of at most this many bytes are modeled as
        buffered (no acknowledgement edge back to the sender — their
        blocking send completes locally).  ``None`` models every send
        synchronously, which is the paper's Fig. 2 / Eq. 1 semantics.
    absolute_weights:
        Store message-edge weights as cross-rank timestamp differences
        instead of the paper's zero weight.  ONLY valid for traces with
        a trusted global clock (our simulator's validation runs); the
        default keeps the paper's clock-free model.
    """

    collective_mode: str = "hub"
    eager_threshold: int | None = None
    absolute_weights: bool = False

    def __post_init__(self) -> None:
        if self.collective_mode not in ("hub", "butterfly"):
            raise ValueError(
                f"collective_mode must be 'hub' or 'butterfly', got {self.collective_mode!r}"
            )
        if self.eager_threshold is not None and self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0 or None")

    def models_ack(self, nbytes: int) -> bool:
        """Whether a send of ``nbytes`` gets the synchronous ack edge."""
        return self.eager_threshold is None or nbytes > self.eager_threshold


def intra_event_edge(ev: EventRecord) -> EdgeT:
    """S→E edge of one event, weighted with the observed duration.  A
    blocking SEND's is δ_os1 of Eq. 1; see :data:`INTRA_OS_KINDS`."""
    if ev.kind in INTRA_OS_KINDS:
        delta = DeltaSpec(DeltaKind.OS, rank=ev.rank, uid=(_UID_INTRA, ev.rank, ev.seq))
    else:
        delta = NO_DELTA
    return EdgeT(
        sub(ev.rank, ev.seq, Phase.START),
        sub(ev.rank, ev.seq, Phase.END),
        EdgeKind.LOCAL,
        ev.duration,
        delta,
        label="op",
    )


def gap_edge(prev: EventRecord, ev: EventRecord) -> EdgeT:
    """E(prev)→S(ev): the compute phase between two events (Fig. 1)."""
    if ev.rank != prev.rank or ev.seq != prev.seq + 1:
        raise DiagnosticError(
            f"gap edge needs consecutive events, got {prev.key} -> {ev.key}",
            code="invalid-gap",
            rank=ev.rank,
            seq=ev.seq,
        )
    gap = ev.t_start - prev.t_end
    if gap < 0:
        raise DiagnosticError(
            f"events overlap: negative compute gap at r{ev.rank}#{ev.seq}: {gap}",
            code="overlapping-events",
            rank=ev.rank,
            seq=ev.seq,
        )
    return EdgeT(
        sub(prev.rank, prev.seq, Phase.END),
        sub(ev.rank, ev.seq, Phase.START),
        EdgeKind.LOCAL,
        gap,
        DeltaSpec(DeltaKind.OS, rank=ev.rank, uid=(_UID_GAP, ev.rank, ev.seq)),
        label="compute",
    )


_INTRA_OS_CODES = sorted(int(k) for k in INTRA_OS_KINDS)


def chain_edges(frame, base: int) -> dict[str, np.ndarray]:
    """One rank's chain of local edges as edge and delta columns (the
    graph's ``edge_*``/``delta_*`` columns keyed without the ``edge_``
    prefix, ``label`` a list).

    ``frame`` is the rank's :class:`~repro.trace.columns.EventColumns`,
    its events owning node ids ``base + 2 * i`` (START) and ``+ 1``
    (END).  The rows are the builder's order: event 0's S→E edge, then
    per later event its S→E edge and the gap edge into it, each exactly
    :func:`intra_event_edge` / :func:`gap_edge` of that event.  The
    caller has checked the chain (dense seqs, no negative weight).
    """
    n = len(frame)
    if not n:
        return {}
    rank, seq = frame.rank, frame.seq
    # Row 2i - 1 (row 0 for event 0) is event i's S→E edge; row 2i its gap.
    intra = np.maximum(2 * np.arange(n) - 1, 0)
    gap = 2 * np.arange(1, n)
    m = 2 * n - 1
    src = np.empty(m, dtype=np.int64)
    src[intra] = base + 2 * np.arange(n)
    src[gap] = base + 2 * np.arange(n - 1) + 1
    weight = np.empty(m, dtype=np.float64)
    weight[intra] = frame.t_end - frame.t_start
    weight[gap] = frame.t_start[1:] - frame.t_end[:-1]
    os_intra = np.isin(frame.kind, _INTRA_OS_CODES)
    sampled = np.ones(m, dtype=bool)
    sampled[intra] = os_intra
    owner = np.empty(m, dtype=np.int64)
    owner[intra] = rank
    owner[gap] = rank[1:]
    uid = np.zeros((m, 3), dtype=np.int64)
    uid[intra, 0] = _UID_INTRA
    uid[gap, 0] = _UID_GAP
    uid[:, 1] = owner
    uid[intra, 2] = seq
    uid[gap, 2] = seq[1:]
    uid[~sampled] = 0
    return {
        "src": src,
        "dst": src + 1,  # S→E of one event, or E of one to S of the next
        "kind": np.zeros(m, dtype=np.uint8),  # EdgeKind.LOCAL
        "weight": weight,
        "label": ["op"] + ["op", "compute"] * (n - 1),
        "delta_kind": np.where(sampled, int(DeltaKind.OS), int(DeltaKind.NONE)).astype(np.uint8),
        "delta_rank": np.where(sampled, owner, -1),
        "delta_src": np.full(m, -1, dtype=np.int64),
        "delta_dst": np.full(m, -1, dtype=np.int64),
        "delta_nbytes": np.zeros(m, dtype=np.int64),
        "delta_rounds": np.zeros(m, dtype=np.int64),
        "delta_uid_len": np.where(sampled, 3, 0),
        "delta_uid": uid,
    }


def transfer_deltas(
    src: int,
    dst: int,
    tag: int,
    nbytes: int,
    chan_index: int,
    recv_kind: EventKind,
    config: BuildConfig,
) -> tuple[DeltaSpec, DeltaSpec | None, Phase]:
    """The perturbations of one matched transfer (Figs. 2 and 3).

    Returns ``(data, ack, ack_phase)``: the data-path delta carrying
    δ_λ1 + δ_t(d) + δ_os2 (Eq. 1 second line), the acknowledgement delta
    (None when ``config`` models the send as eager), and the phase of
    the receive event the acknowledgement leaves from.  A blocking RECV
    acks from its END with δ_λ2, which together with the data path
    reproduces Eq. 1's third term with *shared* δ_λ1/δ_t/δ_os2 samples.
    A *posted* receive (IRECV, or the receive half of a SENDRECV) acks
    by rendezvous: the chain restarts at the posting subevent (IRECV
    END, SENDRECV START) and samples the full λ→ + δ_t + δ_os + λ←
    round trip fresh — sourcing it at the receiver's completion can
    manufacture END↔END cycles the real run (and MPI semantics) do not
    have, e.g. two ranks sendrecv-ing each other.

    ``(src, dst, tag, chan_index)`` is the transfer's canonical identity,
    which both engines compute independently; the edge uids derive from
    it, so they sample the same deltas.
    """
    data = DeltaSpec(
        DeltaKind.TRANSFER_OS,
        rank=dst,
        src=src,
        dst=dst,
        nbytes=nbytes,
        uid=(_UID_DATA, src, dst, tag, chan_index),
    )
    if not config.models_ack(nbytes):
        return data, None, Phase.END
    ack_uid = (_UID_ACK, src, dst, tag, chan_index)
    if recv_kind == EventKind.RECV:
        return data, DeltaSpec(DeltaKind.LATENCY, src=dst, dst=src, uid=ack_uid), Phase.END
    rdv = DeltaSpec(
        DeltaKind.ROUNDTRIP, rank=dst, src=src, dst=dst, nbytes=nbytes, uid=ack_uid
    )
    return data, rdv, Phase.END if recv_kind == EventKind.IRECV else Phase.START


def transfer_edges(
    send_ev: EventRecord,
    recv_ev: EventRecord,
    send_completion: tuple | None,
    recv_completion: tuple | None,
    config: BuildConfig,
    chan_index: int = 0,
) -> list[EdgeT]:
    """Message-edge pair for one matched transfer (Figs. 2 and 3).

    Places the endpoints around :func:`transfer_deltas`: the data edge
    runs from the send's START to the receive's completion END, the
    acknowledgement edge from the receive's ``ack_phase`` subevent to
    the send's completion END.  ``send_completion``/``recv_completion``
    are the (rank, seq) keys of the WAIT-family events that retired the
    respective nonblocking halves (None when not applicable or missing
    — the §4.3 async case).  ``chan_index`` is the transfer's ordinal on
    its ``(src, dst, tag)`` channel.
    """
    s_rank, s_seq = send_ev.rank, send_ev.seq
    r_rank, r_seq = recv_ev.rank, recv_ev.seq
    recv_kind = recv_ev.kind
    nbytes = send_ev.nbytes
    data, ack, ack_phase = transfer_deltas(
        s_rank, r_rank, send_ev.tag, nbytes, chan_index, recv_kind, config
    )
    edges: list[EdgeT] = []

    # The data delays the receive's completion.  An IRECV whose completion
    # was never observed (§4.3's fully-asynchronous case) has no subevent
    # the data could delay, so no data edge is emitted; the correctness
    # checker reports the warning.  (Endpoints are spelled as ``sub``
    # tuples inline: this runs once per message.)
    if recv_kind != EventKind.IRECV:
        data_dst = ("sub", r_rank, r_seq, _END)
    elif recv_completion is not None:
        data_dst = ("sub", recv_completion[0], recv_completion[1], _END)
    else:
        data_dst = None
    if data_dst is not None:
        data_src = ("sub", s_rank, s_seq, _START)
        edges.append(EdgeT(data_src, data_dst, EdgeKind.MESSAGE, 0.0, data, f"d={nbytes}"))

    # The acknowledgement delays the send's completion; a truly
    # asynchronous sender (§4.3) has nothing to delay.
    if ack is None:
        return edges
    if send_ev.kind != EventKind.ISEND:
        ack_dst = ("sub", s_rank, s_seq, _END)
    elif send_completion is not None:
        ack_dst = ("sub", send_completion[0], send_completion[1], _END)
    else:
        return edges
    label = "ack" if recv_kind == EventKind.RECV else "rdv"
    edges.append(EdgeT(sub(r_rank, r_seq, ack_phase), ack_dst, EdgeKind.MESSAGE, 0.0, ack, label))
    return edges


def collective_edges(
    group: CollectiveGroup,
    nprocs: int,
    config: BuildConfig,
) -> list[EdgeT]:
    """Subgraph of one collective instance (Fig. 4 and variants)."""
    p = nprocs
    rounds = ilog2_ceil(p) if p > 1 else 0
    kind = group.kind
    ordinal = group.ordinal
    nbytes = group.nbytes
    root = group.root if group.root >= 0 else 0
    edges: list[EdgeT] = []

    starts = [sub(r, group.members[r][1], Phase.START) for r in range(p)]
    ends = [sub(r, group.members[r][1], Phase.END) for r in range(p)]

    if kind in UNROOTED_HUB_KINDS and config.collective_mode == "butterfly":
        # Explicit dissemination butterfly: exact structure, O(p log p) edges.
        for r in range(p):
            edges.append(
                EdgeT(
                    starts[r],
                    bfly(ordinal, r, 0),
                    EdgeKind.LOCAL,
                    0.0,
                    NO_DELTA,
                    label="bfly-in",
                )
            )
        for k in range(rounds):
            step = 1 << k
            for r in range(p):
                edges.append(
                    EdgeT(
                        bfly(ordinal, r, k),
                        bfly(ordinal, r, k + 1),
                        EdgeKind.LOCAL,
                        0.0,
                        DeltaSpec(
                            DeltaKind.OS, rank=r, uid=(_UID_BFLY_LOCAL, ordinal, r, k)
                        ),
                        label=f"os r{k}",
                    )
                )
                src = (r - step) % p
                edges.append(
                    EdgeT(
                        bfly(ordinal, src, k),
                        bfly(ordinal, r, k + 1),
                        EdgeKind.MESSAGE,
                        0.0,
                        DeltaSpec(
                            DeltaKind.TRANSFER,
                            src=src,
                            dst=r,
                            nbytes=nbytes,
                            uid=(_UID_BFLY_MSG, ordinal, r, k),
                        ),
                        label=f"x r{k}",
                    )
                )
        for r in range(p):
            edges.append(
                EdgeT(
                    bfly(ordinal, r, rounds),
                    ends[r],
                    EdgeKind.LOCAL,
                    0.0,
                    NO_DELTA,
                    label="bfly-out",
                )
            )
        return edges

    if kind in UNROOTED_HUB_KINDS:
        # Fig. 4: fan-in edges labelled l_δ (rounds × (δ_os + δ_λ [+ δ_t]))
        # into the hub; unlabelled fan-out carries max(l_δ) to every END.
        h = hub(ordinal)
        for r in range(p):
            edges.append(
                EdgeT(
                    starts[r],
                    h,
                    EdgeKind.MESSAGE,
                    0.0,
                    DeltaSpec(
                        DeltaKind.COLL_FANIN,
                        rank=r,
                        src=r,
                        dst=root,
                        nbytes=nbytes,
                        rounds=rounds,
                        uid=(_UID_FANIN, ordinal, r),
                    ),
                    label="l_d",
                )
            )
            edges.append(EdgeT(h, ends[r], EdgeKind.MESSAGE, 0.0, NO_DELTA, label="l_d_max"))
        return edges

    if kind in REDUCE_STYLE:
        # Paper's simplified Reduce: fan-in samples latency once; each rank
        # has a local δ_os edge (added by intra_event_edge); fan-out is
        # unlabelled, carrying the root's contribution back out.
        for r in range(p):
            if r == root:
                continue
            edges.append(
                EdgeT(
                    starts[r],
                    ends[root],
                    EdgeKind.MESSAGE,
                    0.0,
                    DeltaSpec(
                        DeltaKind.LATENCY,
                        rank=r,
                        src=r,
                        dst=root,
                        nbytes=nbytes,
                        uid=(_UID_FANIN, ordinal, r),
                    ),
                    label="l_d",
                )
            )
            edges.append(EdgeT(ends[root], ends[r], EdgeKind.MESSAGE, 0.0, NO_DELTA, label=""))
        return edges

    if kind in PREFIX_STYLE:
        # MPI_Scan: rank i's result depends on ranks 0..i.  Modeled as the
        # prefix chain E(0) -> E(1) -> ... -> E(p-1), each hop carrying one
        # transfer's perturbation — matching the pipeline algorithm the
        # simulator times.
        for r in range(1, p):
            edges.append(
                EdgeT(
                    ends[r - 1],
                    ends[r],
                    EdgeKind.MESSAGE,
                    0.0,
                    DeltaSpec(
                        DeltaKind.TRANSFER,
                        src=r - 1,
                        dst=r,
                        nbytes=nbytes,
                        uid=(_UID_FANIN, ordinal, r),
                    ),
                    label="prefix",
                )
            )
        return edges

    if kind in BCAST_STYLE:
        # Mirror of the Reduce simplification: data flows root → all; each
        # receiving rank's fan-out edge carries a tree-depth's worth of
        # (δ_os + δ_λ [+ δ_t]) samples.
        for r in range(p):
            if r == root:
                continue
            edges.append(
                EdgeT(
                    starts[root],
                    ends[r],
                    EdgeKind.MESSAGE,
                    0.0,
                    DeltaSpec(
                        DeltaKind.COLL_FANIN,
                        rank=r,
                        src=root,
                        dst=r,
                        nbytes=nbytes,
                        rounds=rounds,
                        uid=(_UID_BCASTOUT, ordinal, r),
                    ),
                    label="l_d",
                )
            )
        return edges

    raise ValueError(f"{kind.name} is not a collective kind")
