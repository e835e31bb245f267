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
from array import array
from collections.abc import Sequence
from operator import attrgetter, index
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
    "MessagePassingGraph",
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

#: Numeric columns: name -> array typecode (numpy views use the same
#: width, see ``_DTYPES``).  The delta columns unpack each edge's
#: :class:`DeltaSpec` so phase detection and bounds read ints, not
#: attributes.
_NODE_COLUMNS = {
    "node_rank": "q",
    "node_seq": "q",
    "node_phase": "B",
    "node_kind": "B",
    "node_t_local": "d",
}
_EDGE_COLUMNS = {
    "edge_src": "q",
    "edge_dst": "q",
    "edge_kind": "B",
    "edge_weight": "d",
    "delta_kind": "B",
    "delta_rank": "q",
    "delta_src": "q",
    "delta_dst": "q",
    "delta_nbytes": "q",
    "delta_rounds": "q",
}
_DTYPES = {"q": np.int64, "B": np.uint8, "d": np.float64}
_DELTA_FIELDS = {
    f"delta_{field}": attrgetter(field)
    for field in ("kind", "rank", "src", "dst", "nbytes", "rounds")
}


class _Column:
    """A numeric column read as a read-only numpy array (built on first
    read after an append, then shared until the next append)."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        return graph._numpy(self.name)


class _RowView(Sequence):
    """``graph.nodes`` / ``graph.edges``: each row made into a
    :class:`Node` / :class:`Edge` value when accessed."""

    __slots__ = ("_labels", "_row")

    def __init__(self, labels: list, row):
        self._labels = labels  # one per row: the length, kept current
        self._row = row

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(j) for j in range(*i.indices(len(self)))]
        i = index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range")
        return self._row(i)


class MessagePassingGraph:
    """In-core message-passing graph stored as node and edge columns.

    Node ``i`` is row ``i`` of the node columns (``node_rank``,
    ``node_seq``, ``node_phase``, ``node_kind``, ``node_t_local``,
    ``node_label``); edge ``j`` is row ``j`` of the edge columns
    (``edge_src``, ``edge_dst``, ``edge_kind``, ``edge_weight``,
    ``edge_label``, ``edge_delta`` and the unpacked ``delta_*`` ints).
    Numeric columns read as read-only numpy arrays; ``nodes``/``edges``
    are sequence views yielding :class:`Node`/:class:`Edge` values.
    Adjacency is CSR over edge ids, built on first use with a stable
    sort, so ``in_edge_ids(v)`` lists ``v``'s in-edges in insertion
    order.

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

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self._cols: dict[str, array] = {
            name: array(code) for name, code in {**_NODE_COLUMNS, **_EDGE_COLUMNS}.items()
        }
        self.node_label: list[str] = []
        self.edge_label: list[str] = []
        self.edge_delta: list[DeltaSpec] = []
        self.final_nodes: list[int | None] = [None] * nprocs  # FINALIZE ENDs
        self._derived: dict = {}  # numpy columns, CSR, rank chains
        self._subevents: dict | None = None  # (rank, seq, phase) -> id, on demand

    @property
    def nodes(self) -> Sequence[Node]:
        return _RowView(self.node_label, self._node)

    @property
    def edges(self) -> Sequence[Edge]:
        return _RowView(self.edge_label, self._edge)

    def _node(self, i: int) -> Node:
        c = self._cols
        return Node(
            i,
            c["node_rank"][i],
            c["node_seq"][i],
            _PHASE[c["node_phase"][i]],
            _EVENT_KIND[c["node_kind"][i]],
            c["node_t_local"][i],
            self.node_label[i],
        )

    def _edge(self, i: int) -> Edge:
        c = self._cols
        return Edge(
            c["edge_src"][i],
            c["edge_dst"][i],
            _EDGE_KIND[c["edge_kind"][i]],
            c["edge_weight"][i],
            self.edge_delta[i],
            self.edge_label[i],
        )

    def _numpy(self, name: str) -> np.ndarray:
        arr = self._derived.get(name)
        if arr is None:
            col = self._cols[name]
            arr = np.frombuffer(col, dtype=_DTYPES[col.typecode]).copy()
            arr.flags.writeable = False
            self._derived[name] = arr
        return arr

    def __getstate__(self) -> dict:
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
        c = self._cols
        c["node_rank"].append(rank)
        c["node_seq"].append(seq)
        c["node_phase"].append(phase)
        c["node_kind"].append(kind)
        c["node_t_local"].append(t_local)
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
                rank=self._cols["node_rank"][src],
                seq=self._cols["node_seq"][src],
            )
        edge_id = len(self.edge_label)
        self.extend_edges([src], [dst], [kind], [weight], [delta], [label])
        return edge_id

    def extend_nodes(self, rank, seq, phase, kind, t_local, label) -> None:
        """Append node rows in bulk (one sequence per column).

        The caller guarantees real subevents are unique — the builder
        does, by requiring dense per-rank sequence numbers.
        """
        c = self._cols
        for name, values in zip(_NODE_COLUMNS, (rank, seq, phase, kind, t_local)):
            c[name].extend(values)
        self.node_label.extend(label)
        self._derived.clear()
        self._subevents = None

    def extend_edges(self, src, dst, kind, weight, delta, label) -> None:
        """Append edge rows in bulk (one sequence per column).

        The caller has validated each row as :meth:`add_edge` would —
        the builder does, in trace order, so an error names the first
        defect.
        """
        c = self._cols
        for name, values in zip(_EDGE_COLUMNS, (src, dst, kind, weight)):
            c[name].extend(values)
        for name, field in _DELTA_FIELDS.items():
            c[name].extend(map(field, delta))
        self.edge_delta.extend(delta)
        self.edge_label.extend(label)
        self._derived.clear()

    # -- lookup -----------------------------------------------------------------
    def _subevent_index(self) -> dict:
        """(rank, seq, phase) -> node id of every real subevent.  Built
        only for point lookups and one-at-a-time construction; the
        analysis path never needs it."""
        if self._subevents is None:
            c = self._cols
            self._subevents = {
                (r, s, _PHASE[p]): i
                for i, (r, s, p) in enumerate(zip(c["node_rank"], c["node_seq"], c["node_phase"]))
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

    def out_edges(self, node_id: int) -> Iterator[Edge]:
        edges = self.edges
        return (edges[i] for i in self.out_edge_ids(node_id))

    def in_edges(self, node_id: int) -> Iterator[Edge]:
        edges = self.edges
        return (edges[i] for i in self.in_edge_ids(node_id))

    def out_degree(self, node_id: int) -> int:
        ptr, _ = self.out_csr()
        return int(ptr[node_id + 1] - ptr[node_id])

    def in_degree(self, node_id: int) -> int:
        ptr, _ = self.in_csr()
        return int(ptr[node_id + 1] - ptr[node_id])

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
        """Kahn topological order plus each node's level (1 + the
        largest level among its predecessors; 0 for sources); raises on
        cycles.

        A cycle means the builder produced an inconsistent graph — §4.3
        guarantees a trace of a completed run yields a DAG.
        """
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
        if len(order) != n:
            raise DiagnosticError(
                f"message-passing graph has a cycle ({n - len(order)} nodes unreached)",
                code="graph-cycle",
            )
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
        n_local = self._cols["edge_kind"].count(EdgeKind.LOCAL)
        return {
            "nprocs": self.nprocs,
            "nodes": len(self.node_label),
            "virtual_nodes": self._cols["node_phase"].count(Phase.VIRTUAL),
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
