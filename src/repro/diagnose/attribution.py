"""Makespan attribution along the critical path.

Every edge on the extracted path carries observed time; summing those
costs per rank and per primitive decomposes the end-to-end makespan
into "where the time went" buckets:

* **rank** — the rank whose local clock the edge's interval was
  observed on (the real destination endpoint; virtual collective hubs
  attribute to the nearest real endpoint);
* **primitive** — the operation class of the interval: the message-
  passing call itself (``send``, ``recv``, ``allreduce``, …) for the
  START→END edge of one event, ``compute`` for the gap between
  consecutive events, and delta-kind buckets (``transfer``,
  ``rendezvous``, ``collective``, …) for message and hub edges, which
  have zero base weight in the delta model (§6) but show up once
  sampled deltas are added to the costs.

The shares are exact: they sum to the path's total cost by
construction, so the attribution is an audit of the makespan, not an
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.builder import BuildResult
from repro.core.graph import DeltaKind, Edge, EdgeKind, MessagePassingGraph, Phase
from repro.diagnose.path import CriticalPathExtract
from repro.trace.events import EventKind

__all__ = ["Attribution", "attribute_path", "classify_edge"]

# Primitive bucket for message/hub edges, by the delta the analyzer
# would sample there (the edge's role in the §3 perturbation model).
_DELTA_PRIMITIVE = {
    DeltaKind.NONE: "sync",
    DeltaKind.OS: "os-noise",
    DeltaKind.LATENCY: "ack",
    DeltaKind.TRANSFER: "transfer",
    DeltaKind.TRANSFER_OS: "transfer",
    DeltaKind.ROUNDTRIP: "rendezvous",
    DeltaKind.COLL_FANIN: "collective",
}


def classify_edge(g: MessagePassingGraph, e: Edge) -> tuple[str, int]:
    """``(primitive, rank)`` bucket of one edge's cost.

    Local edges between real subevents are either an operation interval
    (START→END of the same event → the event kind) or a compute gap
    (between consecutive events).  Message edges and edges touching
    virtual hub nodes bucket by their delta kind.
    """
    (primitive,), (rank,) = _classify(g, [e.src], [e.dst], [e.kind], [e.delta.kind])
    return primitive, rank


def _classify(g: MessagePassingGraph, src, dst, edge_kind, delta_kind) -> tuple[list, list]:
    """:func:`classify_edge` over edge columns: ``(primitives, ranks)``."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    phase, seq = g.node_phase, g.node_seq
    s_virt = phase[src] == Phase.VIRTUAL
    d_virt = phase[dst] == Phase.VIRTUAL
    ranks = np.where(d_virt, np.where(s_virt, -1, g.node_rank[src]), g.node_rank[dst])
    local = (np.asarray(edge_kind) == EdgeKind.LOCAL) & ~s_virt & ~d_virt
    op = (
        local
        & (seq[src] == seq[dst])
        & (phase[src] == Phase.START)
        & (phase[dst] == Phase.END)
    )
    op_names = {int(k): k.name.lower() for k in EventKind}
    primitives = [
        op_names[k] if is_op else "compute" if is_local else _DELTA_PRIMITIVE[d]
        for is_op, is_local, k, d in zip(
            op.tolist(),
            local.tolist(),
            g.node_kind[dst].tolist(),
            np.asarray(delta_kind, dtype=np.int64).tolist(),
        )
    ]
    return primitives, ranks.tolist()


@dataclass(frozen=True)
class Attribution:
    """Makespan decomposition along one critical path.

    ``by_rank`` / ``by_primitive`` map to summed cost (cycles); both
    sum to ``makespan`` exactly.  ``top_edges`` holds the
    ``(edge_id, cost, primitive, rank)`` of the costliest path edges,
    cost-descending (ties toward path order).
    """

    makespan: float
    by_rank: dict
    by_primitive: dict
    top_edges: tuple

    def rank_share(self, rank: int) -> float:
        """Fraction of the makespan observed on ``rank``."""
        if self.makespan <= 0:
            return 0.0
        return self.by_rank.get(rank, 0.0) / self.makespan

    def primitive_share(self, primitive: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.by_primitive.get(primitive, 0.0) / self.makespan

    def dominant_rank(self) -> tuple[int, float]:
        """``(rank, share)`` of the rank carrying the most path time."""
        if not self.by_rank:
            return (-1, 0.0)
        rank = max(sorted(self.by_rank), key=lambda r: self.by_rank[r])
        return rank, self.rank_share(rank)

    def dominant_primitive(self, exclude: tuple = ("compute",)) -> tuple[str, float]:
        """``(primitive, share)`` of the largest non-excluded bucket."""
        names = [p for p in sorted(self.by_primitive) if p not in exclude]
        if not names:
            return ("", 0.0)
        prim = max(names, key=lambda p: self.by_primitive[p])
        return prim, self.primitive_share(prim)

    def table(self) -> str:
        """Two aligned share tables for the text reporter."""
        lines = [f"{'rank':>6} {'on-path (cy)':>14} {'share':>7}"]
        for rank in sorted(self.by_rank):
            c = self.by_rank[rank]
            lines.append(f"{rank:>6} {c:>14,.1f} {self.rank_share(rank):>6.1%}")
        lines.append(f"{'primitive':>12} {'on-path (cy)':>14} {'share':>7}")
        for prim in sorted(self.by_primitive, key=lambda p: -self.by_primitive[p]):
            c = self.by_primitive[prim]
            lines.append(f"{prim:>12} {c:>14,.1f} {self.primitive_share(prim):>6.1%}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "by_rank": {str(r): c for r, c in sorted(self.by_rank.items())},
            "by_primitive": dict(sorted(self.by_primitive.items())),
            "top_edges": [
                {"edge": ei, "cost": c, "primitive": p, "rank": r}
                for ei, c, p, r in self.top_edges
            ],
        }


def attribute_path(
    build: BuildResult, cp: CriticalPathExtract, top_edges: int = 10
) -> Attribution:
    """Decompose a critical path's cost per rank / primitive / edge."""
    g = build.graph
    by_rank: dict[int, float] = {}
    by_primitive: dict[str, float] = {}
    rows = []
    with obs.span("diagnose.attribution", edges=len(cp.edges)):
        ids = np.asarray(cp.edges, dtype=np.int64)
        primitives, ranks = _classify(
            g, g.edge_src[ids], g.edge_dst[ids], g.edge_kind[ids], g.delta_kind[ids]
        )
        for ei, cost, primitive, rank in zip(cp.edges, cp.costs, primitives, ranks):
            by_rank[rank] = by_rank.get(rank, 0.0) + cost
            by_primitive[primitive] = by_primitive.get(primitive, 0.0) + cost
            rows.append((ei, cost, primitive, rank))
        rows.sort(key=lambda r: -r[1])
    return Attribution(
        makespan=cp.total_cost,
        by_rank=by_rank,
        by_primitive=by_primitive,
        top_edges=tuple(rows[: max(0, top_edges)]),
    )
