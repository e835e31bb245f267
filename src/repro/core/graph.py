"""The message-passing graph (§2).

Nodes are *subevents*: the START and END of each traced event ("an event
is split into two subevents ... which correspond to entry and exit from
the message passing operation", §4.2), plus virtual nodes introduced by
collective subgraph templates (the hub of Fig. 4).

Edges are *local* (connecting subevents in the same trace, weighted with
the observed interval) or *message* (connecting subevents in different
traces, weighted zero originally — "the effects of latency and bandwidth
are already embedded in the timings of the actual events", §6).  Every
edge carries a :class:`DeltaSpec` describing which perturbation deltas
the analyzer samples onto it.

Timestamps stored on nodes are **local to the owning rank** and are only
ever compared along local edges; message edges are used exclusively for
delay (delta) propagation, never for cross-rank time arithmetic (§4.1).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from operator import index
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.diagnostics import DiagnosticError
from repro.trace.events import EventKind

__all__ = [
    "Phase",
    "EdgeKind",
    "DeltaKind",
    "DeltaSpec",
    "NO_DELTA",
    "Node",
    "Edge",
    "DeltaRows",
    "MessagePassingGraph",
    "delta_columns",
]


class Phase(enum.IntEnum):
    """Which end of an event a subevent node represents."""

    START = 0
    END = 1
    VIRTUAL = 2  # collective hubs, butterfly round nodes


class EdgeKind(enum.IntEnum):
    LOCAL = 0
    MESSAGE = 1


class DeltaKind(enum.IntEnum):
    """What perturbation the analyzer samples for an edge (§3, §5).

    NONE            no perturbation (pure precedence edge)
    OS              one δ_os sample for the owning rank
    LATENCY         one δ_λ sample for the edge's (src_rank, dst_rank) link
    TRANSFER        δ_λ + δ_t(nbytes) (data-bearing message edge)
    TRANSFER_OS     δ_λ + δ_t(nbytes) + δ_os on the receiving rank — the
                    data-path bundle of Fig. 2 / Eq. (1) second line
    ROUNDTRIP       λ→ + δ_t(nbytes) + δ_os(dst) + λ← — rendezvous
                    completion against a posted nonblocking receive
    COLL_FANIN      l_δ of Fig. 4: ``rounds`` × (δ_os + δ_λ [+ δ_t])
    """

    NONE = 0
    OS = 1
    LATENCY = 2
    TRANSFER = 3
    TRANSFER_OS = 4
    ROUNDTRIP = 5
    COLL_FANIN = 6


class DeltaSpec(NamedTuple):
    """Sampling instructions attached to an edge (an immutable named
    tuple: the builder makes one per sampled edge).

    ``rank`` is the rank whose OS-noise distribution applies;
    ``src``/``dst`` the link for latency terms; ``nbytes`` the payload
    for δ_t; ``rounds`` the sample count for COLL_FANIN; ``uid`` the
    edge's stable identity used for deterministic sampling (see
    :mod:`repro.core.perturb`).
    """

    kind: DeltaKind = DeltaKind.NONE
    rank: int = -1
    src: int = -1
    dst: int = -1
    nbytes: int = 0
    rounds: int = 0
    uid: tuple = ()


NO_DELTA = DeltaSpec()


class Node(NamedTuple):
    """One subevent.

    ``t_local`` is the subevent's timestamp on its own rank's clock
    (NaN for virtual nodes, which have no observed time).
    """

    node_id: int
    rank: int
    seq: int
    phase: Phase
    kind: EventKind
    t_local: float
    label: str = ""

    @property
    def is_virtual(self) -> bool:
        return self.phase == Phase.VIRTUAL


class Edge(NamedTuple):
    """A precedence constraint with base weight and perturbation spec.

    ``weight`` is the *observed* elapsed time along the edge (local
    edges) or 0.0 (message edges, §6); the traversal adds the sampled
    delta from ``delta`` on top.
    """

    src: int
    dst: int
    kind: EdgeKind
    weight: float
    delta: DeltaSpec = NO_DELTA
    label: str = ""


# Enum members by value: column cells are plain ints; views hand out
# the enum members.
_PHASE = {int(p): p for p in Phase}
_EDGE_KIND = {int(k): k for k in EdgeKind}
_EVENT_KIND = {int(k): k for k in EventKind}
_DELTA_KIND = {int(k): k for k in DeltaKind}

#: Numeric columns: name -> dtype.  The delta columns unpack each
#: edge's :class:`DeltaSpec` so phase detection, bounds and the sampler
#: read ints, not attributes; ``delta_uid`` is an (edges, width) int64
#: matrix whose row ``j`` holds edge ``j``'s uid in its first
#: ``delta_uid_len[j]`` cells (ints outside int64 are kept as their low
#: 64 bits, which is all the sampler's stream key reads of them).
_NODE_COLUMNS = {
    "node_rank": np.int64,
    "node_seq": np.int64,
    "node_phase": np.uint8,
    "node_kind": np.uint8,
    "node_t_local": np.float64,
}
_EDGE_COLUMNS = {
    "edge_src": np.int64,
    "edge_dst": np.int64,
    "edge_kind": np.uint8,
    "edge_weight": np.float64,
}
_DELTA_COLUMNS = {
    "delta_kind": np.uint8,
    "delta_rank": np.int64,
    "delta_src": np.int64,
    "delta_dst": np.int64,
    "delta_nbytes": np.int64,
    "delta_rounds": np.int64,
    "delta_uid_len": np.int64,
}
_DELTA_ROW_COLUMNS = (*list(_DELTA_COLUMNS)[:6], "delta_uid", "delta_uid_len")
_MASK64 = (1 << 64) - 1


def _int64(v: int) -> int:
    """``v`` as the int64 with its low 64 bits."""
    v &= _MASK64
    return v - (1 << 64) if v >> 63 else v


def delta_columns(deltas: Sequence[DeltaSpec]) -> dict[str, np.ndarray]:
    """:class:`DeltaSpec` values unpacked into the graph's delta
    columns (:data:`_DELTA_COLUMNS` plus the ``delta_uid`` matrix)."""
    fields = list(zip(*deltas)) if deltas else [()] * 7
    cols = {
        name: np.array(values, dtype=dtype)
        for (name, dtype), values in zip(list(_DELTA_COLUMNS.items())[:6], fields)
    }
    uids = fields[6]
    lens = np.fromiter(map(len, uids), dtype=np.int64, count=len(uids))
    cols["delta_uid_len"] = lens
    flat = [v for uid in uids for v in uid]
    try:
        vals = np.array(flat, dtype=np.int64)
    except OverflowError:
        vals = np.array([_int64(v) for v in flat], dtype=np.int64)
    uid = np.zeros((len(uids), int(lens.max(initial=0))), dtype=np.int64)
    if len(flat):
        rows = np.repeat(np.arange(len(uids)), lens)
        uid[rows, np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)] = vals
    cols["delta_uid"] = uid
    return cols


class DeltaRows(Sequence):
    """Per-edge :class:`DeltaSpec` values read from delta columns: row
    ``j`` is made when accessed (``graph.edge_delta``,
    ``CompiledPlan.deltas``)."""

    __slots__ = ("_kind", "_rank", "_src", "_dst", "_nbytes", "_rounds", "_uid", "_uid_len")

    def __init__(self, kind, rank, src, dst, nbytes, rounds, uid, uid_len):
        self._kind, self._rank, self._src, self._dst = kind, rank, src, dst
        self._nbytes, self._rounds, self._uid, self._uid_len = nbytes, rounds, uid, uid_len

    def __len__(self) -> int:
        return len(self._kind)

    def _row(self, j: int) -> DeltaSpec:
        return DeltaSpec(
            _DELTA_KIND[int(self._kind[j])],
            int(self._rank[j]),
            int(self._src[j]),
            int(self._dst[j]),
            int(self._nbytes[j]),
            int(self._rounds[j]),
            tuple(self._uid[j, : self._uid_len[j]].tolist()),
        )

    def __getitem__(self, j):
        if isinstance(j, slice):
            return self.take(np.arange(len(self))[j])
        j = index(j)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"row {j} out of range")
        return self._row(j)

    def take(self, ids) -> list[DeltaSpec]:
        """The rows ``ids`` (an int array), made in one pass."""
        lens = self._uid_len[ids].tolist()
        uids = self._uid[ids].tolist()
        return list(
            map(
                DeltaSpec,
                [_DELTA_KIND[k] for k in self._kind[ids].tolist()],
                self._rank[ids].tolist(),
                self._src[ids].tolist(),
                self._dst[ids].tolist(),
                self._nbytes[ids].tolist(),
                self._rounds[ids].tolist(),
                [tuple(u[:n]) for u, n in zip(uids, lens)],
            )
        )

    def __iter__(self) -> Iterator[DeltaSpec]:
        return iter(self.take(slice(None)))


class _Column:
    """A numeric column, read as a read-only numpy array."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        return graph._column(self.name)


class _RowView(Sequence):
    """``graph.nodes`` / ``graph.edges``: the rows as :class:`Node` /
    :class:`Edge` values, all made on the first access that reads one
    and kept until the graph grows (``len`` makes none)."""

    __slots__ = ("_labels", "_rows")

    def __init__(self, labels: list, rows):
        self._labels = labels  # one per row: the length, kept current
        self._rows = rows

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, i):
        return self._rows()[i]

    def __iter__(self):
        return iter(self._rows())


def _grown(col: np.ndarray, values, dtype) -> np.ndarray:
    """``col`` with ``values`` appended, read-only."""
    values = np.asarray(values, dtype=dtype)
    if values.ndim == 2 and col.ndim == 2 and values.shape[1] != col.shape[1]:
        width = max(values.shape[1], col.shape[1])
        col = np.pad(col, ((0, 0), (0, width - col.shape[1])))
        values = np.pad(values, ((0, 0), (0, width - values.shape[1])))
    out = values if not len(col) else np.concatenate([col, values])
    if out is values and out.base is not None:
        out = out.copy()  # never share a caller's buffer
    out.flags.writeable = False
    return out


def _csr_rows(ptr: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries of CSR rows ``rows``, concatenated in that order."""
    sizes = ptr[rows + 1] - ptr[rows]
    first = np.cumsum(sizes) - sizes
    return ids[np.repeat(ptr[rows] - first, sizes) + np.arange(int(sizes.sum()))]


class MessagePassingGraph:
    """In-core message-passing graph stored as node and edge columns.

    Node ``i`` is row ``i`` of the node columns (``node_rank``,
    ``node_seq``, ``node_phase``, ``node_kind``, ``node_t_local``,
    ``node_label``); edge ``j`` is row ``j`` of the edge columns
    (``edge_src``, ``edge_dst``, ``edge_kind``, ``edge_weight``,
    ``edge_label``) and of the delta columns (``delta_kind``,
    ``delta_rank``, ``delta_src``, ``delta_dst``, ``delta_nbytes``,
    ``delta_rounds``, the ``delta_uid`` matrix and ``delta_uid_len``).
    Numeric columns are read-only numpy arrays, held as such;
    ``nodes``/``edges`` are sequence views yielding :class:`Node`/
    :class:`Edge` values, and ``edge_delta`` one yielding each edge's
    :class:`DeltaSpec`.  Rows appended one at a time (:meth:`add_node`,
    :meth:`add_edge`) are gathered and joined to the columns on the next
    read.  Adjacency is CSR over edge ids, built on first use with a
    stable sort, so ``in_edge_ids(v)`` lists ``v``'s in-edges in
    insertion order.

    The streaming analyzer (:mod:`repro.core.traversal`) never builds
    this object; it exists for exact verification, visualization
    (Fig. 5), critical-path and absorption analysis on traces that fit
    in memory.
    """

    node_rank = _Column()
    node_seq = _Column()
    node_phase = _Column()
    node_kind = _Column()
    node_t_local = _Column()
    edge_src = _Column()
    edge_dst = _Column()
    edge_kind = _Column()
    edge_weight = _Column()
    delta_kind = _Column()
    delta_rank = _Column()
    delta_src = _Column()
    delta_dst = _Column()
    delta_nbytes = _Column()
    delta_rounds = _Column()
    delta_uid = _Column()
    delta_uid_len = _Column()

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self._cols: dict[str, np.ndarray] = {
            name: np.zeros(0, dtype=dtype)
            for name, dtype in {**_NODE_COLUMNS, **_EDGE_COLUMNS, **_DELTA_COLUMNS}.items()
        }
        self._cols["delta_uid"] = np.zeros((0, 0), dtype=np.int64)
        self._pending_nodes: list[tuple] = []  # rows from add_node
        self._pending_edges: list[tuple] = []  # rows from add_edge
        self.node_label: list[str] = []
        self.edge_label: list[str] = []
        self.final_nodes: list[int | None] = [None] * nprocs  # FINALIZE ENDs
        self._derived: dict = {}  # CSR, rank chains, row values
        self._subevents: dict | None = None  # (rank, seq, phase) -> id, on demand

    @property
    def nodes(self) -> Sequence[Node]:
        return _RowView(self.node_label, self._node_rows)

    @property
    def edges(self) -> Sequence[Edge]:
        return _RowView(self.edge_label, self._edge_rows)

    @property
    def edge_delta(self) -> DeltaRows:
        """Each edge's :class:`DeltaSpec`, read from the delta columns."""
        c = self._flushed()
        return DeltaRows(*(c[name] for name in _DELTA_ROW_COLUMNS))

    def _node_rows(self) -> list[Node]:
        rows = self._derived.get("node_rows")
        if rows is None:
            c = self._flushed()
            rows = self._derived["node_rows"] = list(
                map(
                    Node,
                    range(len(self.node_label)),
                    c["node_rank"].tolist(),
                    c["node_seq"].tolist(),
                    [_PHASE[p] for p in c["node_phase"].tolist()],
                    [_EVENT_KIND[k] for k in c["node_kind"].tolist()],
                    c["node_t_local"].tolist(),
                    self.node_label,
                )
            )
        return rows

    def _edge_rows(self) -> list[Edge]:
        rows = self._derived.get("edge_rows")
        if rows is None:
            c = self._flushed()
            rows = self._derived["edge_rows"] = list(
                map(
                    Edge,
                    c["edge_src"].tolist(),
                    c["edge_dst"].tolist(),
                    [_EDGE_KIND[k] for k in c["edge_kind"].tolist()],
                    c["edge_weight"].tolist(),
                    self.edge_delta,
                    self.edge_label,
                )
            )
        return rows

    def _flushed(self) -> dict[str, np.ndarray]:
        """The columns, with any rows added one at a time joined on."""
        if self._pending_nodes:
            rows, self._pending_nodes = self._pending_nodes, []
            self._extend(_NODE_COLUMNS, zip(*rows))
        if self._pending_edges:
            rows, self._pending_edges = self._pending_edges, []
            src, dst, kind, weight, delta = zip(*rows)
            self._extend(_EDGE_COLUMNS, (src, dst, kind, weight))
            self._extend_deltas(delta_columns(delta))
        return self._cols

    def _column(self, name: str) -> np.ndarray:
        return self._flushed()[name]

    def _extend(self, names: dict, values) -> None:
        c = self._cols
        for (name, dtype), vals in zip(names.items(), values):
            c[name] = _grown(c[name], vals, dtype)
        self._derived.clear()

    def _extend_deltas(self, delta: dict) -> None:
        self._extend(_DELTA_COLUMNS, (delta[name] for name in _DELTA_COLUMNS))
        self._cols["delta_uid"] = _grown(self._cols["delta_uid"], delta["delta_uid"], np.int64)

    def __getstate__(self) -> dict:
        self._flushed()
        state = dict(self.__dict__)
        state["_derived"] = {}
        state["_subevents"] = None
        return state

    # -- construction ---------------------------------------------------------
    def add_node(
        self,
        rank: int,
        seq: int,
        phase: Phase,
        kind: EventKind,
        t_local: float,
        label: str = "",
    ) -> int:
        """Add a subevent node; returns its id.  Real (non-virtual)
        subevents are unique per (rank, seq, phase)."""
        node_id = len(self.node_label)
        if phase != Phase.VIRTUAL:
            key = (rank, seq, phase)
            index = self._subevent_index()
            if key in index:
                raise DiagnosticError(
                    f"duplicate subevent {key}", code="duplicate-subevent", rank=rank, seq=seq
                )
            index[key] = node_id
        self._pending_nodes.append((rank, seq, phase, kind, t_local))
        self.node_label.append(label)
        self._derived.clear()
        return node_id

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: EdgeKind,
        weight: float,
        delta: DeltaSpec = NO_DELTA,
        label: str = "",
    ) -> int:
        n = len(self.node_label)
        if not (0 <= src < n and 0 <= dst < n):
            raise DiagnosticError(
                f"edge endpoints out of range: {src}->{dst}", code="invalid-edge"
            )
        if src == dst:
            raise DiagnosticError(f"self-loop on node {src}", code="invalid-edge")
        if kind == EdgeKind.LOCAL and weight < 0:
            raise DiagnosticError(
                f"negative local edge weight {weight} ({src}->{dst})",
                code="invalid-edge-weight",
                rank=int(self.node_rank[src]),
                seq=int(self.node_seq[src]),
            )
        edge_id = len(self.edge_label)
        self._pending_edges.append((src, dst, kind, weight, delta))
        self.edge_label.append(label)
        self._derived.clear()
        return edge_id

    def extend_nodes(self, rank, seq, phase, kind, t_local, label) -> None:
        """Append node rows in bulk (one sequence or array per column).

        The caller guarantees real subevents are unique — the builder
        does, by requiring dense per-rank sequence numbers.
        """
        self._flushed()
        self._extend(_NODE_COLUMNS, (rank, seq, phase, kind, t_local))
        self.node_label.extend(label)
        self._subevents = None

    def extend_edges(self, src, dst, kind, weight, delta, label) -> None:
        """Append edge rows in bulk (one sequence or array per column).

        ``delta`` is a sequence of :class:`DeltaSpec` or the delta
        columns themselves (:func:`delta_columns`' mapping).  The caller
        has validated each row as :meth:`add_edge` would — the builder
        does, in trace order, so an error names the first defect.
        """
        self._flushed()
        self._extend(_EDGE_COLUMNS, (src, dst, kind, weight))
        self._extend_deltas(delta if isinstance(delta, dict) else delta_columns(delta))
        self.edge_label.extend(label)

    # -- lookup -----------------------------------------------------------------
    def _subevent_index(self) -> dict:
        """(rank, seq, phase) -> node id of every real subevent.  Built
        only for point lookups and one-at-a-time construction; the
        analysis path never needs it."""
        if self._subevents is None:
            c = self._flushed()
            self._subevents = {
                (r, s, _PHASE[p]): i
                for i, (r, s, p) in enumerate(
                    zip(c["node_rank"].tolist(), c["node_seq"].tolist(), c["node_phase"].tolist())
                )
                if p != Phase.VIRTUAL
            }
        return self._subevents

    def node_of(self, rank: int, seq: int, phase: Phase) -> int:
        """Node id of a real subevent."""
        return self._subevent_index()[(rank, seq, phase)]

    def has_node(self, rank: int, seq: int, phase: Phase) -> bool:
        return (rank, seq, phase) in self._subevent_index()

    def _csr(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, ids)``: edge ids grouped by ``dst`` (side "in") or
        ``src`` (side "out"), insertion order within each group."""
        key = f"csr_{side}"
        csr = self._derived.get(key)
        if csr is None:
            ends = self.edge_dst if side == "in" else self.edge_src
            ptr = np.zeros(len(self.node_label) + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=len(self.node_label)), out=ptr[1:])
            csr = (ptr, np.argsort(ends, kind="stable"))
            self._derived[key] = csr
        return csr

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-adjacency as ``(ptr, edge_ids)``: node ``v``'s in-edges are
        ``edge_ids[ptr[v]:ptr[v + 1]]``, in insertion order."""
        return self._csr("in")

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-adjacency as ``(ptr, edge_ids)`` (see :meth:`in_csr`)."""
        return self._csr("out")

    def spread(self, seen: np.ndarray, undirected: bool = False) -> None:
        """Grow the node mask ``seen`` in place to every node reachable
        from it along out-edges (along edges either way with
        ``undirected``), one frontier at a time over the CSR arrays."""
        steps = [(*self.out_csr(), self.edge_dst)]
        if undirected:
            steps.append((*self.in_csr(), self.edge_src))
        frontier = np.flatnonzero(seen)
        while len(frontier):
            near = np.concatenate([ends[_csr_rows(ptr, ids, frontier)] for ptr, ids, ends in steps])
            frontier = np.unique(near[~seen[near]])
            seen[frontier] = True

    def in_edge_ids(self, node_id: int) -> list[int]:
        """Indices into ``edges`` of this node's incoming edges."""
        ptr, ids = self.in_csr()
        return ids[ptr[node_id] : ptr[node_id + 1]].tolist()

    def out_edge_ids(self, node_id: int) -> list[int]:
        """Indices into ``edges`` of this node's outgoing edges."""
        ptr, ids = self.out_csr()
        return ids[ptr[node_id] : ptr[node_id + 1]].tolist()

    # -- traversal support --------------------------------------------------------
    def topological_levels(self) -> tuple[list[int], list[int]]:
        """:meth:`kahn_levels`, raising on a cycle: §4.3 guarantees a
        completed run's trace yields a DAG, so a cycle means the builder
        produced an inconsistent graph."""
        order, level = self.kahn_levels()
        n = len(self.node_label)
        if len(order) != n:
            raise DiagnosticError(
                f"message-passing graph has a cycle ({n - len(order)} nodes unreached)",
                code="graph-cycle",
            )
        return order, level

    def kahn_levels(self) -> tuple[list[int], list[int]]:
        """Kahn topological order plus each node's level (1 + the
        largest level among its predecessors; 0 for sources).  On a
        cycle the order lacks every node on or after one."""
        n = len(self.node_label)
        ptr, ids = self.out_csr()
        starts = ptr.tolist()
        targets = self.edge_dst[ids].tolist()
        indeg = np.bincount(self.edge_dst, minlength=n).tolist()
        level = [0] * n
        stack = [v for v, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while stack:
            v = stack.pop()
            order.append(v)
            nxt = level[v] + 1
            for t in targets[starts[v] : starts[v + 1]]:
                if level[t] < nxt:
                    level[t] = nxt
                indeg[t] -= 1
                if indeg[t] == 0:
                    stack.append(t)
        return order, level

    def topological_order(self) -> list[int]:
        """Kahn topological order; raises on cycles."""
        return self.topological_levels()[0]

    def rank_chains(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, node_ids)``: every rank's real subevents in trace
        (seq, phase) order, rank ``r`` at ``node_ids[ptr[r]:ptr[r + 1]]``."""
        chains = self._derived.get("chains")
        if chains is None:
            rank, seq, phase = self.node_rank, self.node_seq, self.node_phase
            real = np.nonzero(phase != Phase.VIRTUAL)[0]
            order = real[np.lexsort((phase[real], seq[real], rank[real]))]
            ptr = np.searchsorted(rank[order], np.arange(self.nprocs + 1))
            chains = (ptr, order)
            self._derived["chains"] = chains
        return chains

    def final_node_of(self, rank: int) -> int | None:
        """The rank's FINALIZE END node, falling back to the last real
        subevent of its chain; ``None`` when the rank has no nodes.

        Every consumer that needs "where does rank r end" (final-delay
        extraction, critical-path backtracking, the compiled plan's
        final-node table, diagnosis sinks) goes through this accessor so
        the fallback semantics cannot drift between engines.
        """
        nid = self.final_nodes[rank]
        if nid is not None:
            return nid
        ptr, order = self.rank_chains()
        return int(order[ptr[rank + 1] - 1]) if ptr[rank + 1] > ptr[rank] else None

    def rank_chain(self, rank: int) -> list[int]:
        """Real subevent nodes of one rank in trace order."""
        ptr, order = self.rank_chains()
        return order[ptr[rank] : ptr[rank + 1]].tolist()

    def local_edges(self) -> Iterator[Edge]:
        return (e for e in self.edges if e.kind == EdgeKind.LOCAL)

    def message_edges(self) -> Iterator[Edge]:
        return (e for e in self.edges if e.kind == EdgeKind.MESSAGE)

    # -- stats ---------------------------------------------------------------------
    def stats(self) -> dict:
        n_edges = len(self.edge_label)
        n_local = int(np.count_nonzero(self.edge_kind == EdgeKind.LOCAL))
        return {
            "nprocs": self.nprocs,
            "nodes": len(self.node_label),
            "virtual_nodes": int(np.count_nonzero(self.node_phase == Phase.VIRTUAL)),
            "edges": n_edges,
            "local_edges": n_local,
            "message_edges": n_edges - n_local,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<MessagePassingGraph p={s['nprocs']} nodes={s['nodes']} "
            f"edges={s['edges']} (local={s['local_edges']}, msg={s['message_edges']})>"
        )
