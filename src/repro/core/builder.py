"""Trace-set → message-passing graph construction (§4, §4.2).

The builder loads per-rank events, matches them by execution order
(:mod:`repro.core.matching`, which also rejects a matched send and
receive that disagree on their size), and materializes the subgraph
templates of :mod:`repro.core.primitives` into an in-core
:class:`~repro.core.graph.MessagePassingGraph`, appending straight into
its node and edge columns.

For traces that do not fit in memory, use the windowed streaming
traversal (:class:`repro.core.traversal.StreamingTraversal`) instead —
it evaluates the same template functions (``transfer_deltas`` for
point-to-point transfers, ``collective_edges`` for collectives) without
ever materializing the graph.
"""

from __future__ import annotations

import contextlib
import gc
import math
from dataclasses import dataclass, field

from repro import obs
from repro.core.diagnostics import AnalysisWarning, DiagnosticError
from repro.core.graph import EdgeKind, MessagePassingGraph, Phase
from repro.core.matching import MatchResult, match_events
from repro.core.primitives import (
    BuildConfig,
    EdgeT,
    collective_edges,
    gap_edge,
    intra_event_edge,
    transfer_edges,
)
from repro.trace.events import EventKind, EventRecord

__all__ = ["BuildConfig", "BuildResult", "build_graph"]


@dataclass
class BuildResult:
    """Graph plus the match metadata used to build it.

    ``warnings`` carries structured :class:`~repro.core.diagnostics.
    AnalysisWarning` objects for anomalies found while matching (e.g.
    nonblocking requests whose completion was never observed) — the
    §4.3 cases the tool must flag rather than silently mis-model.
    """

    graph: MessagePassingGraph
    match: MatchResult
    events: list  # per-rank event lists (kept for analysis/export)
    config: BuildConfig
    warnings: list = field(default_factory=list)

    def __getstate__(self) -> dict:
        # Derived caches ride __dict__ (checkpoint digest, compiled-plan
        # memo); the per-build compile lock (repro.core.compiled) is not
        # picklable and is process-local by nature — drop it so builds
        # still cross the pool boundary.
        state = dict(self.__dict__)
        state.pop("_compiled_plans_lock", None)
        return state


def _match_warnings(match: MatchResult, per_rank: list) -> list[AnalysisWarning]:
    """Structured §4.3 warnings for unanchored nonblocking requests."""
    out: list[AnalysisWarning] = []
    for rank, seq in match.uncompleted:
        ev = per_rank[rank][seq]
        if ev.kind == EventKind.ISEND:
            out.append(
                AnalysisWarning(
                    f"rank {rank} event #{seq}: ISEND to {ev.peer} (tag {ev.tag}) never "
                    f"completed — sender-side delays from this transfer are not modeled; "
                    f"correctness of arbitrary perturbations cannot be guaranteed (§4.3)",
                    code="uncompleted-isend",
                    rank=rank,
                    seq=seq,
                )
            )
        else:
            out.append(
                AnalysisWarning(
                    f"rank {rank} event #{seq}: IRECV from {ev.peer} (tag {ev.tag}) never "
                    f"completed — incoming delays from this transfer are dropped (§4.3)",
                    code="uncompleted-irecv",
                    rank=rank,
                    seq=seq,
                )
            )
    return out


# Node labels of an event's (START, END): shared strings per kind.
_LABELS = {kind: (f"{kind.name}.s", f"{kind.name}.e") for kind in EventKind}
_START_END = (Phase.START, Phase.END)


class _EndpointResolver:
    """Map template endpoint descriptors to node ids.

    Rank ``r``'s events own the node ids ``base[r] .. base[r] + 2n - 1``,
    two per event (START, END) in seq order, so a real subevent
    ``("sub", r, seq, phase)`` resolves arithmetically to
    ``base[r] + 2 * (seq - seq0[r]) + phase`` — valid because the chain
    pass rejects any rank whose seqs are not dense.  Virtual nodes
    (hubs, butterfly rounds) are numbered after every real node, in
    first-use order, and their rows collected for the graph.
    """

    def __init__(self, per_rank: list):
        self.base: list[int] = []
        self.seq0: list[int] = []
        self.count: list[int] = []
        n = 0
        for events in per_rank:
            self.base.append(n)
            self.seq0.append(events[0].seq if events else 0)
            self.count.append(len(events))
            n += 2 * len(events)
        self.n_real = n
        self._virtual: dict[tuple, int] = {}
        self.virtual_rank: list[int] = []
        self.virtual_seq: list[int] = []
        self.virtual_label: list[str] = []

    def node_id(self, ep: tuple) -> int:
        if ep[0] == "sub":
            _, rank, seq, phase = ep
            if 0 <= rank < len(self.base):
                k = seq - self.seq0[rank]
                if 0 <= k < self.count[rank]:
                    return self.base[rank] + 2 * k + phase
            raise DiagnosticError(
                f"edge endpoint {ep} names no traced subevent",
                code="invalid-edge",
                rank=rank,
                seq=seq,
            )
        nid = self._virtual.get(ep)
        if nid is None:
            if ep[0] == "hub":
                rank, seq, label = -1, ep[1], f"hub#{ep[1]}"
            else:  # ("bfly", ordinal, rank, k)
                rank, seq, label = ep[2], ep[1], f"bfly#{ep[1]}r{ep[2]}k{ep[3]}"
            nid = self.n_real + len(self._virtual)
            self.virtual_rank.append(rank)
            self.virtual_seq.append(seq)
            self.virtual_label.append(label)
            self._virtual[ep] = nid
        return nid


def _chain_error(
    rank: int, base: int, seq0: int, i: int, prev: EventRecord, ev: EventRecord
) -> None:
    """Raise the error the chain pass owes for event ``i`` of ``rank``,
    whose seq breaks the dense run ``seq0, seq0 + 1, ...``: a repeated
    seq is a duplicate subevent; otherwise the event's own interval is
    checked first, then the gap from its predecessor."""
    if seq0 <= ev.seq <= prev.seq:
        key = (rank, ev.seq, Phase.START)
        raise DiagnosticError(
            f"duplicate subevent {key}", code="duplicate-subevent", rank=rank, seq=ev.seq
        )
    if ev.duration < 0:
        src = base + 2 * i
        raise DiagnosticError(
            f"negative local edge weight {ev.duration} ({src}->{src + 1})",
            code="invalid-edge-weight",
            rank=rank,
            seq=ev.seq,
        )
    gap_edge(prev, ev)  # raises invalid-gap: ev.seq != prev.seq + 1


def _message_lag(t_src: float, t_dst: float, weight: float) -> float:
    """Message-edge weight in absolute mode (global clock): the *signed*
    cross-rank timestamp lag, or the template weight when either end
    has no observed time.

    The sign matters: conservative acknowledgement edges point from a
    receive completion back to an eager send's END, which finished
    earlier in wall-clock time — their observed lag is negative, and
    flooring it at zero would inject phantom delays into the absolute
    recomputation (see :func:`repro.core.traversal.propagate_absolute`).
    The paper's clock-free model keeps every message weight at 0.
    """
    if math.isnan(t_src) or math.isnan(t_dst):
        return weight
    return t_dst - t_src


@contextlib.contextmanager
def _gc_paused():
    """Pause cyclic garbage collection while building.

    A build allocates one long-lived object per event and per sampled
    edge and creates no reference cycles; the collections those
    allocations trigger would rescan every live object again and again
    (about a sixth of build time at 26k events).  Reference counting
    still frees everything; a collector already off stays off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def build_graph(trace_set, config: BuildConfig | None = None) -> BuildResult:
    """Build the full message-passing graph of a complete run.

    ``trace_set`` is a :class:`repro.trace.reader.TraceSet` /
    :class:`~repro.trace.reader.MemoryTrace` (anything with ``nprocs``
    and ``load_all``).
    """
    config = config or BuildConfig()
    with obs.span("build_graph", engine="incore"), _gc_paused():
        with obs.span("read_traces"):
            per_rank: list[list[EventRecord]] = trace_set.load_all()
        nprocs = trace_set.nprocs
        match = match_events(per_rank)
        with obs.span("materialize_graph"):
            graph = MessagePassingGraph(nprocs)
            resolve = _EndpointResolver(per_rank)
            n_real = resolve.n_real
            node_rank: list[int] = []
            node_seq: list[int] = []
            node_phase: list[Phase] = []
            node_kind: list[EventKind] = []
            node_t: list[float] = []
            node_label: list[str] = []
            e_src: list[int] = []
            e_dst: list[int] = []
            e_kind: list[EdgeKind] = []
            e_weight: list[float] = []
            e_delta: list = []
            e_label: list[str] = []
            absolute = config.absolute_weights

            node_id = resolve.node_id
            local = EdgeKind.LOCAL

            def add(et: EdgeT) -> None:
                ep_src, ep_dst, kind, weight, delta, label = et
                src = node_id(ep_src)
                dst = node_id(ep_dst)
                if src == dst:
                    raise DiagnosticError(f"self-loop on node {src}", code="invalid-edge")
                if kind == local:
                    if weight < 0:
                        ranks = node_rank + resolve.virtual_rank
                        seqs = node_seq + resolve.virtual_seq
                        raise DiagnosticError(
                            f"negative local edge weight {weight} ({src}->{dst})",
                            code="invalid-edge-weight",
                            rank=ranks[src],
                            seq=seqs[src],
                        )
                elif absolute and src < n_real and dst < n_real:
                    weight = _message_lag(node_t[src], node_t[dst], weight)
                e_src.append(src)
                e_dst.append(dst)
                e_kind.append(kind)
                e_weight.append(weight)
                e_delta.append(delta)
                e_label.append(label)

            # Straight-line per-rank chains (§2): subevent nodes, intra
            # edges, gaps.
            finalize = EventKind.FINALIZE
            for rank, events in enumerate(per_rank):
                base, seq0 = resolve.base[rank], resolve.seq0[rank]
                prev: EventRecord | None = None
                for i, ev in enumerate(events):
                    if ev.seq != seq0 + i:
                        _chain_error(rank, base, seq0, i, prev, ev)
                    kind = ev.kind
                    node_rank += (rank, rank)
                    node_seq += (ev.seq, ev.seq)
                    node_phase += _START_END
                    node_kind += (kind, kind)
                    node_t += (ev.t_start, ev.t_end)
                    node_label += _LABELS[kind]
                    add(intra_event_edge(ev))
                    if prev is not None:
                        add(gap_edge(prev, ev))
                    if kind == finalize:
                        graph.final_nodes[rank] = base + 2 * i + 1
                    prev = ev

            # Message edges for every matched transfer (Figs. 2/3).
            for skey, rkey in match.transfer_of.items():
                send_ev = per_rank[skey[0]][skey[1]]
                recv_ev = per_rank[rkey[0]][rkey[1]]
                for et in transfer_edges(
                    send_ev,
                    recv_ev,
                    match.completion_of.get(skey),
                    match.completion_of.get(rkey),
                    config,
                    chan_index=match.transfer_index[skey],
                ):
                    add(et)

            # Collective subgraphs (Fig. 4 / butterfly).
            for group in match.collectives:
                for et in collective_edges(group, nprocs, config):
                    add(et)

            # Real subevents (rank-major, START/END per event in seq
            # order), then the virtual nodes in first-use order.
            nv = len(resolve.virtual_label)
            graph.extend_nodes(
                node_rank + resolve.virtual_rank,
                node_seq + resolve.virtual_seq,
                node_phase + [Phase.VIRTUAL] * nv,
                node_kind + [EventKind.BARRIER] * nv,
                node_t + [math.nan] * nv,
                node_label + resolve.virtual_label,
            )
            graph.extend_edges(e_src, e_dst, e_kind, e_weight, e_delta, e_label)

        obs.span_add("graph.nodes", len(graph.nodes))
        obs.span_add("graph.edges", len(graph.edges))
        warnings = _match_warnings(match, per_rank)
        for w in warnings:
            obs.add(f"warnings.{w.code}", w.count)
        return BuildResult(
            graph=graph, match=match, events=per_rank, config=config, warnings=warnings
        )

