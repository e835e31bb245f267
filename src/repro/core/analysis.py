"""Post-traversal analyses (§4.2, §6).

Beyond the headline number (how much longer did the run get), the paper
promises: "we also can explore how varying parameters affects not only
overall runtime, but regions within the graph where perturbations are
absorbed or fully propagated, corresponding to tolerant or highly
sensitive code."  This module delivers those analyses on in-core
traversal results:

* :func:`runtime_impact` — per-rank delay, relative slowdown, makespan;
* :func:`critical_path` — backtrack the binding max() chain from the
  most-delayed finalize and attribute its delay to perturbation classes
  (OS noise vs latency vs bandwidth vs collective fan-in);
* :func:`absorption_map` — per rank and per event, whether the event's
  completion was determined by the local path (perturbation *absorbed*)
  or by an incoming message edge (*propagated*), plus per-edge slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.builder import BuildResult
from repro.core.graph import DeltaKind, EdgeKind, Phase
from repro.core.traversal import TraversalResult

__all__ = [
    "RuntimeImpact",
    "runtime_impact",
    "CriticalPath",
    "critical_path",
    "binding_chain",
    "AbsorptionMap",
    "absorption_map",
    "DelayPoint",
    "delay_timeline",
]

_EPS = 1e-9


# ---------------------------------------------------------------------------
# Runtime impact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeImpact:
    """Per-rank and aggregate runtime change."""

    delays: tuple
    original_runtimes: tuple
    slowdowns: tuple  # delay / original runtime

    @property
    def max_delay(self) -> float:
        return max(self.delays)

    @property
    def mean_delay(self) -> float:
        return sum(self.delays) / len(self.delays)

    @property
    def max_slowdown(self) -> float:
        return max(self.slowdowns)

    def table(self) -> str:
        lines = [f"{'rank':>5} {'delay (cy)':>14} {'runtime (cy)':>14} {'slowdown':>9}"]
        for r, (d, t, s) in enumerate(zip(self.delays, self.original_runtimes, self.slowdowns)):
            lines.append(f"{r:>5} {d:>14.1f} {t:>14.1f} {s:>8.2%}")
        return "\n".join(lines)


def runtime_impact(build: BuildResult, result: TraversalResult) -> RuntimeImpact:
    """Summarize how the perturbation changed each rank's runtime."""
    runtimes = [
        float(f.t_end[-1]) - float(f.t_start[0]) if len(f) else 0.0 for f in build.frames
    ]
    slowdowns = tuple(
        d / t if t > 0 else 0.0 for d, t in zip(result.final_delay, runtimes)
    )
    return RuntimeImpact(
        delays=tuple(result.final_delay),
        original_runtimes=tuple(runtimes),
        slowdowns=slowdowns,
    )


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPath:
    """The binding chain of max() decisions behind one rank's delay."""

    rank: int
    total_delay: float
    edges: tuple  # edge indices, source-to-sink order
    by_delta_kind: dict  # DeltaKind name -> summed δ_eff along the path
    by_edge_kind: dict  # "local"/"message" -> summed δ_eff
    ranks_visited: tuple
    _deltas: tuple = None  # per-edge sampled deltas (aligned with graph edges)

    def dominant_class(self) -> str:
        """Perturbation class contributing the most delay on the path."""
        if not self.by_delta_kind:
            return "none"
        return max(self.by_delta_kind, key=self.by_delta_kind.get)

    def describe(self, build: "BuildResult", limit: int = 15) -> str:
        """Hop-by-hop rendering of the binding chain's top contributors.

        Shows the ``limit`` largest-delta edges on the path in path
        order, with their endpoints and perturbation class — the "where
        exactly did the time go" view.
        """
        g = build.graph
        rows = []
        for ei in self.edges:
            e = g.edges[ei]
            delta = self._deltas[ei] if self._deltas is not None else float("nan")
            if abs(delta) <= _EPS:
                continue
            src, dst = g.nodes[e.src], g.nodes[e.dst]

            def describe_node(n):
                if n.is_virtual:
                    return n.label
                return f"r{n.rank}#{n.seq}.{'S' if n.phase == Phase.START else 'E'} {n.kind.name}"

            rows.append((delta, describe_node(src), describe_node(dst), e))
        rows.sort(key=lambda r: -r[0])
        lines = [
            f"critical path of rank {self.rank}: {self.total_delay:,.0f} cy over "
            f"{len(self.edges)} edges (top {min(limit, len(rows))} contributors)"
        ]
        for delta, src, dst, e in rows[:limit]:
            kind = DeltaKind(e.delta.kind).name
            lines.append(f"  {delta:>12,.1f} cy  {kind:<12} {src} -> {dst}")
        return "\n".join(lines)


def binding_chain(
    graph, L: Sequence[float], cost: Sequence[float], sink: int, floor: float
) -> tuple[list[int], list[int]]:
    """Walk the binding max() chain backwards from ``sink``.

    ``L[v]`` is the longest-path value into node ``v`` under per-edge
    costs ``cost`` (a perturbed traversal's node delays, or longest
    weighted path costs).  At each node the binding in-edge is the
    first one in in-CSR order whose ``L[src] + cost[e] == L[node]``
    holds exactly — the tie-break of the
    :func:`~repro.testing.oracle.longest_weighted_path` oracle.  The
    walk stops at a node with no binding in-edge (a source) or with
    ``L[node] <= floor``.

    Returns ``(edges, nodes)`` in source-to-sink order, with
    ``len(nodes) == len(edges) + 1``.
    """
    ptr, in_ids = (a.tolist() for a in graph.in_csr())
    edge_src = graph.edge_src.tolist()
    edges: list[int] = []
    nodes = [sink]
    node = sink
    while L[node] > floor:
        for ei in in_ids[ptr[node] : ptr[node + 1]]:
            if L[edge_src[ei]] + cost[ei] == L[node]:
                break
        else:
            break
        edges.append(ei)
        node = edge_src[ei]
        nodes.append(node)
    edges.reverse()
    nodes.reverse()
    return edges, nodes


def critical_path(
    build: BuildResult, result: TraversalResult, rank: int | None = None
) -> CriticalPath:
    """Backtrack the binding predecessor chain from a finalize node.

    ``rank`` defaults to the most-delayed rank with events; a rank with
    none has no path and is refused.  The chain is
    :func:`binding_chain` over the node delays, stopping where the
    delay vanishes.
    """
    if result.node_delay is None or result.edge_delta is None:
        raise ValueError("critical path requires an in-core traversal result")
    g = build.graph
    deltas = result.edge_delta
    if rank is None:
        ranks = [r for r in range(g.nprocs) if g.final_node_of(r) is not None]
        rank = max(ranks, key=lambda r: result.final_delay[r], default=0)
    sink = g.final_node_of(rank)
    if sink is None:
        raise ValueError(f"rank {rank} has no events: no critical path ends there")
    path, visited = binding_chain(g, result.node_delay, deltas, sink, _EPS)
    by_delta: dict[str, float] = {}
    by_kind: dict[str, float] = {"local": 0.0, "message": 0.0}
    names = {int(k): k.name for k in DeltaKind}
    local = int(EdgeKind.LOCAL)
    for ei, dk, ek in zip(path, g.delta_kind[path].tolist(), g.edge_kind[path].tolist()):
        d = deltas[ei]
        if abs(d) > _EPS:
            by_delta[names[dk]] = by_delta.get(names[dk], 0.0) + d
            by_kind["local" if ek == local else "message"] += d
    return CriticalPath(
        rank=rank,
        total_delay=result.final_delay[rank],
        edges=tuple(path),
        by_delta_kind=by_delta,
        by_edge_kind=by_kind,
        ranks_visited=tuple(dict.fromkeys(g.node_rank[visited].tolist())),
        _deltas=tuple(deltas),
    )


# ---------------------------------------------------------------------------
# Absorption map (§4.2's tolerant-vs-sensitive regions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorptionMap:
    """Where incoming message delays bound vs were absorbed.

    ``events[rank]`` is a list of ``(seq, binding)`` for every event END
    with at least one incoming message edge; ``binding`` is True when a
    message edge determined the node's delay (perturbation *propagated*)
    and False when the rank's own local path dominated (*absorbed*).
    ``slack[rank]`` sums, over absorbed message edges, how far below the
    binding path each arrived — the delay headroom of tolerant code.
    """

    events: dict
    propagated_counts: dict
    absorbed_counts: dict
    slack: dict

    def absorption_ratio(self, rank: int) -> float:
        """Fraction of message-receiving events where delay was absorbed."""
        a = self.absorbed_counts.get(rank, 0)
        p = self.propagated_counts.get(rank, 0)
        return a / (a + p) if (a + p) else 0.0

    def overall_ratio(self) -> float:
        a = sum(self.absorbed_counts.values())
        p = sum(self.propagated_counts.values())
        return a / (a + p) if (a + p) else 0.0


@dataclass(frozen=True)
class DelayPoint:
    """Accumulated delay at one event's END on a rank's timeline."""

    seq: int
    kind: str
    t_local: float
    delay: float
    increment: float  # delay growth since the previous event


def delay_timeline(build: BuildResult, result: TraversalResult, rank: int) -> list:
    """Per-event delay series of one rank (how D(t) grows along the run).

    The §4.2 sensitivity-region view at event granularity: flat stretches
    are tolerant code (delays absorbed or simply no perturbation), jumps
    mark the events where delay was injected or arrived from remote
    ranks.
    """
    if result.node_delay is None:
        raise ValueError("delay timeline requires an in-core traversal result")
    g = build.graph
    points: list[DelayPoint] = []
    prev = 0.0
    for ev in build.events[rank]:
        nid = g.node_of(rank, ev.seq, Phase.END)
        d = result.node_delay[nid]
        points.append(
            DelayPoint(
                seq=ev.seq,
                kind=ev.kind.name,
                t_local=ev.t_end,
                delay=d,
                increment=d - prev,
            )
        )
        prev = d
    return points


def absorption_map(build: BuildResult, result: TraversalResult) -> AbsorptionMap:
    """Classify every message-receiving subevent as absorbed/propagated."""
    if result.node_delay is None or result.edge_delta is None:
        raise ValueError("absorption map requires an in-core traversal result")
    g = build.graph
    P = g.nprocs
    D = np.asarray(result.node_delay, dtype=np.float64)
    deltas = np.asarray(result.edge_delta, dtype=np.float64)

    # Message in-edges of real nodes, grouped by node (CSR order).
    _, in_ids = g.in_csr()
    ids = in_ids[g.edge_kind[in_ids] == EdgeKind.MESSAGE]
    ids = ids[g.node_phase[g.edge_dst[ids]] != Phase.VIRTUAL]
    nodes, first = np.unique(g.edge_dst[ids], return_index=True)
    arrival = D[g.edge_src[ids]] + deltas[ids]
    best_msg = np.maximum.reduceat(arrival, first) if len(ids) else arrival
    d_node = D[nodes]
    binding = (np.abs(best_msg - d_node) <= _EPS) & (d_node > _EPS)
    ranks = g.node_rank[nodes]

    events: dict[int, list] = {r: [] for r in range(P)}
    for r, seq, b in zip(ranks.tolist(), g.node_seq[nodes].tolist(), binding.tolist()):
        events[r].append((seq, b))
    propagated = np.bincount(ranks[binding], minlength=P).tolist()
    absorbed = np.bincount(ranks[~binding], minlength=P).tolist()
    headroom = d_node[~binding] - best_msg[~binding]
    slack = np.zeros(P, dtype=np.float64)
    # Unbuffered: each rank's headroom is summed in node order.
    np.add.at(slack, ranks[~binding], np.where(headroom > 0.0, headroom, 0.0))
    return AbsorptionMap(
        events=events,
        propagated_counts=dict(enumerate(propagated)),
        absorbed_counts=dict(enumerate(absorbed)),
        slack=dict(enumerate(slack.tolist())),
    )
