"""Trace-set → message-passing graph construction (§4, §4.2).

The builder takes each rank's decoded columns
(:class:`~repro.trace.columns.EventColumns`, decoded once per trace set
— see :meth:`repro.trace.reader.TraceSet.take_columns`), matches them
by execution order (:mod:`repro.core.matching`, which also rejects a
matched send and receive that disagree on their size), and lays out
the subgraph templates of :mod:`repro.core.primitives` as the node and
edge columns of a :class:`~repro.core.graph.MessagePassingGraph`:

* the per-rank chains (two nodes per event, every S→E and gap edge
  with its δ_os) with array ops, by ``chain_edges``;
* each matched transfer through ``transfer_edges`` and each collective
  through ``collective_edges``, the template functions the streaming
  traversal evaluates too.

A chain defect (a seq gap or repeat, overlapping events) is found with
array comparisons; the first one in rank-major order is then named by
walking that rank event by event, so errors keep their code, rank,
seq and order.

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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro import obs
from repro.core.diagnostics import AnalysisWarning, DiagnosticError
from repro.core.graph import EdgeKind, MessagePassingGraph, Phase, delta_columns
from repro.core.matching import MatchResult, match_events
from repro.core.primitives import (
    BuildConfig,
    EdgeT,
    chain_edges,
    collective_edges,
    gap_edge,
    transfer_edges,
)
from repro.trace.events import EventKind, EventRecord
from repro.trace.reader import rank_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.columns import EventColumns

__all__ = ["BuildConfig", "BuildResult", "build_graph"]


@dataclass
class BuildResult:
    """Graph plus the match metadata used to build it.

    ``frames`` holds each rank's decoded
    :class:`~repro.trace.columns.EventColumns`; :attr:`events` gives
    them as per-rank :class:`EventRecord` lists, made on first use.
    ``warnings`` carries structured :class:`~repro.core.diagnostics.
    AnalysisWarning` objects for anomalies found while matching (e.g.
    nonblocking requests whose completion was never observed) — the
    §4.3 cases the tool must flag rather than silently mis-model.
    """

    graph: MessagePassingGraph
    match: MatchResult
    frames: list  # per-rank EventColumns
    config: BuildConfig
    warnings: list = field(default_factory=list)

    @property
    def events(self) -> list[list[EventRecord]]:
        """Per-rank event lists (kept for analysis/export)."""
        events = self.__dict__.get("_events")
        if events is None:
            events = self.__dict__["_events"] = [f.records() for f in self.frames]
        return events

    def __getstate__(self) -> dict:
        # Derived caches ride __dict__ (checkpoint digest, compiled-plan
        # memo, the event lists); the per-build compile lock
        # (repro.core.compiled) is not picklable and is process-local by
        # nature — drop it so builds still cross the pool boundary, and
        # ship the columns rather than the event objects.
        state = dict(self.__dict__)
        state.pop("_compiled_plans_lock", None)
        state.pop("_events", None)
        return state


def _match_warnings(match: MatchResult, frames: list) -> list[AnalysisWarning]:
    """Structured §4.3 warnings for unanchored nonblocking requests."""
    out: list[AnalysisWarning] = []
    for rank, seq in match.uncompleted:
        ev = frames[rank].record(seq)
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
_KINDS = tuple(EventKind)


class _Half(NamedTuple):
    """What ``transfer_edges`` reads of a send or receive event."""

    rank: int
    seq: int
    kind: EventKind
    tag: int
    nbytes: int


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

    def __init__(self, frames: list):
        self.base: list[int] = []
        self.seq0: list[int] = []
        self.count: list[int] = []
        n = 0
        for frame in frames:
            self.base.append(n)
            self.seq0.append(int(frame.seq[0]) if len(frame) else 0)
            self.count.append(len(frame))
            n += 2 * len(frame)
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


def _chain_defective(frame: EventColumns) -> bool:
    """Whether the rank's chain breaks: a seq out of the dense run, an
    event with negative duration, or a negative gap (NaN passes, as in
    the event-by-event walk)."""
    n = len(frame)
    if not n:
        return False
    seq = frame.seq
    return bool(
        np.any(seq != seq[0] + np.arange(n))
        or np.any(frame.t_end < frame.t_start)
        or np.any(frame.t_start[1:] < frame.t_end[:-1])
    )


class _ChainRow(NamedTuple):
    """What the chain checks read of an event (built without the
    checks of an :class:`EventRecord`, which a corrupt interval fails)."""

    rank: int
    seq: int
    t_start: float
    t_end: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.rank, self.seq)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _raise_chain_error(rank: int, base: int, frame: EventColumns) -> None:
    """Walk one defective chain event by event and raise its first
    defect, as the template functions word it."""
    events = list(
        map(
            _ChainRow,
            frame.rank.tolist(),
            frame.seq.tolist(),
            frame.t_start.tolist(),
            frame.t_end.tolist(),
        )
    )
    seq0 = events[0].seq
    prev: _ChainRow | None = None
    for i, ev in enumerate(events):
        if ev.seq != seq0 + i:
            _chain_error(rank, base, seq0, i, prev, ev)
        if ev.duration < 0:
            src = base + 2 * i
            raise DiagnosticError(
                f"negative local edge weight {ev.duration} ({src}->{src + 1})",
                code="invalid-edge-weight",
                rank=rank,
                seq=ev.seq,
            )
        if prev is not None:
            gap_edge(prev, ev)
        prev = ev


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


def _decoded(trace_set) -> list[EventColumns]:
    """Every rank of ``trace_set`` as columns, owned by the build."""
    take = getattr(trace_set, "take_columns", None)
    if take is not None:
        return take()
    return [rank_columns(trace_set, rank) for rank in range(trace_set.nprocs)]


def _message_edges(match: MatchResult, frames: list, nprocs: int, config, resolve) -> dict:
    """Edge columns of every transfer (Figs. 2/3) and collective (Fig. 4
    / butterfly), in match order, as the template functions give them
    (all weighted 0: only the chains carry observed intervals)."""
    node_id = resolve.node_id
    e_src: list[int] = []
    e_dst: list[int] = []
    e_kind: list[EdgeKind] = []
    e_weight: list[float] = []
    e_delta: list = []
    e_label: list[str] = []

    def add(et: EdgeT) -> None:
        ep_src, ep_dst, kind, weight, delta, label = et
        src = node_id(ep_src)
        dst = node_id(ep_dst)
        if src == dst:
            raise DiagnosticError(f"self-loop on node {src}", code="invalid-edge")
        e_src.append(src)
        e_dst.append(dst)
        e_kind.append(kind)
        e_weight.append(weight)
        e_delta.append(delta)
        e_label.append(label)

    cols = [(f.kind.tolist(), f.tag.tolist(), f.nbytes.tolist()) for f in frames]
    seq0 = resolve.seq0

    def half(key: tuple) -> _Half:
        rank, seq = key
        kinds, tags, sizes = cols[rank]
        i = seq - seq0[rank]
        return _Half(rank, seq, _KINDS[kinds[i]], tags[i], sizes[i])

    completion_of = match.completion_of
    transfer_index = match.transfer_index
    for skey, rkey in match.transfer_of.items():
        for et in transfer_edges(
            half(skey),
            half(rkey),
            completion_of.get(skey),
            completion_of.get(rkey),
            config,
            chan_index=transfer_index[skey],
        ):
            add(et)
    for group in match.collectives:
        for et in collective_edges(group, nprocs, config):
            add(et)
    return {
        "src": np.array(e_src, dtype=np.int64),
        "dst": np.array(e_dst, dtype=np.int64),
        "kind": np.array(e_kind, dtype=np.uint8),
        "weight": np.array(e_weight, dtype=np.float64),
        "label": e_label,
        **delta_columns(e_delta),
    }


def _node_columns(frames: list, resolve: _EndpointResolver) -> tuple:
    """The node columns (rank, seq, phase, kind, t_local, label): two
    per event, rank-major, then the virtual nodes."""
    n_real, nv = resolve.n_real, len(resolve.virtual_label)
    kinds = np.concatenate([f.kind for f in frames])
    t_local = np.full(n_real + nv, math.nan)
    t_local[0:n_real:2] = np.concatenate([f.t_start for f in frames])
    t_local[1:n_real:2] = np.concatenate([f.t_end for f in frames])
    ranks = np.repeat(np.arange(len(frames)), [2 * len(f) for f in frames])
    seqs = np.repeat(np.concatenate([f.seq for f in frames]), 2)
    phases = np.tile(np.array([Phase.START, Phase.END], dtype=np.uint8), n_real // 2)
    return (
        np.concatenate([ranks, resolve.virtual_rank]).astype(np.int64),
        np.concatenate([seqs, resolve.virtual_seq]).astype(np.int64),
        np.concatenate([phases, np.full(nv, Phase.VIRTUAL, dtype=np.uint8)]),
        np.concatenate([np.repeat(kinds, 2), np.full(nv, EventKind.BARRIER, dtype=np.uint8)]),
        t_local,
        [label for k in kinds.tolist() for label in _LABELS[_KINDS[k]]] + resolve.virtual_label,
    )


def _absolute(message: dict, t_local: np.ndarray, n_real: int) -> dict:
    """Message edges weighted as in absolute mode (a global clock): a
    message edge between real subevents weighs the *signed* cross-rank
    lag, or keeps its template weight when either end has no observed
    time.

    The sign matters: conservative acknowledgement edges point from a
    receive completion back to an eager send's END, which finished
    earlier in wall-clock time — their observed lag is negative, and
    flooring it at zero would inject phantom delays into the absolute
    recomputation (see :func:`repro.core.traversal.propagate_absolute`).
    The paper's clock-free model keeps every message weight at 0.
    """
    src, dst = message["src"], message["dst"]
    real = (message["kind"] != EdgeKind.LOCAL) & (src < n_real) & (dst < n_real)
    t_src = t_local[np.where(real, src, 0)]
    t_dst = t_local[np.where(real, dst, 0)]
    lag = real & ~np.isnan(t_src) & ~np.isnan(t_dst)
    return {**message, "weight": np.where(lag, t_dst - t_src, message["weight"])}


def _stacked(parts: list[dict]) -> dict:
    """Edge column dicts joined in order (uid matrices padded to one
    width)."""
    width = max(p["delta_uid"].shape[1] for p in parts)
    out = {
        name: np.concatenate([p[name] for p in parts])
        for name in parts[0]
        if name not in ("label", "delta_uid")
    }
    out["delta_uid"] = np.concatenate(
        [np.pad(p["delta_uid"], ((0, 0), (0, width - p["delta_uid"].shape[1]))) for p in parts]
    )
    out["label"] = [label for p in parts for label in p["label"]]
    return out


def build_graph(trace_set, config: BuildConfig | None = None) -> BuildResult:
    """Build the full message-passing graph of a complete run.

    ``trace_set`` is a :class:`repro.trace.reader.TraceSet` /
    :class:`~repro.trace.reader.MemoryTrace` (any
    :class:`~repro.trace.reader.TraceSource`).  A trace set's columns
    pass to the build (:meth:`~repro.trace.reader.TraceSet.take_columns`),
    which keeps them as :attr:`BuildResult.frames`.
    """
    config = config or BuildConfig()
    with obs.span("build_graph", engine="incore"), _gc_paused():
        with obs.span("read_traces"):
            frames = _decoded(trace_set)
        nprocs = trace_set.nprocs
        match = match_events(frames)
        with obs.span("materialize_graph"):
            graph = MessagePassingGraph(nprocs)
            resolve = _EndpointResolver(frames)
            n_real = resolve.n_real

            # Straight-line per-rank chains (§2): subevent nodes, intra
            # edges, gaps; the first defect stops the build.
            for rank, frame in enumerate(frames):
                if _chain_defective(frame):
                    _raise_chain_error(rank, resolve.base[rank], frame)
            chains = [chain_edges(f, b) for f, b in zip(frames, resolve.base) if len(f)]
            for rank, frame in enumerate(frames):
                final = np.nonzero(frame.kind == EventKind.FINALIZE)[0]
                if len(final):
                    graph.final_nodes[rank] = resolve.base[rank] + 2 * int(final[-1]) + 1

            # Message edges for every matched transfer, then collective
            # subgraphs.
            message = _message_edges(match, frames, nprocs, config, resolve)

            # Real subevents (rank-major, START/END per event in seq
            # order), then the virtual nodes in first-use order.
            nodes = _node_columns(frames, resolve)
            graph.extend_nodes(*nodes)
            message = _absolute(message, nodes[4], n_real) if config.absolute_weights else message
            edges = _stacked([*chains, message])
            graph.extend_edges(
                edges["src"],
                edges["dst"],
                edges["kind"],
                edges["weight"],
                {name: edges[name] for name in edges if name.startswith("delta_")},
                edges["label"],
            )

        obs.span_add("graph.nodes", len(graph.nodes))
        obs.span_add("graph.edges", len(graph.edges))
        warnings = _match_warnings(match, frames)
        for w in warnings:
            obs.add(f"warnings.{w.code}", w.count)
        return BuildResult(
            graph=graph, match=match, frames=frames, config=config, warnings=warnings
        )
