"""Graph-level rules (MPG1xx): defects in the built message-passing
graph and in the cross-rank structure it is built from.

MPG102/MPG103 work from aggregate per-channel and per-ordinal counters
over the raw events, so they still report precisely *which* channel or
collective is inconsistent even when matching refuses to build a graph
at all.  MPG101/MPG104/MPG105 inspect the materialized
:class:`~repro.core.graph.MessagePassingGraph`; when no graph could be
built they stay silent and the engine surfaces the structured build
error instead.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.graph import EdgeKind, MessagePassingGraph, Phase
from repro.lint.model import Finding, LintConfig, Severity
from repro.lint.registry import rule
from repro.trace.events import COLLECTIVE_KINDS, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import LintContext

__all__: list[str] = []  # rules register themselves; nothing to re-export

_CYCLE_SHOW = 12  # nodes of a cycle to print before eliding


@rule(
    id="MPG101",
    code="graph-cycle",
    severity=Severity.ERROR,
    category="graph",
    summary="the message-passing graph must be a DAG",
    rationale=(
        "Perturbation propagation is a topological-order traversal; a cycle "
        "makes completion times undefined.  A trace of a completed run always "
        "yields a DAG (§4.3), so a cycle proves the trace or the matching is "
        "inconsistent."
    ),
)
def graph_cycle(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    g = ctx.graph
    if g is None:
        return
    order, _ = g.kahn_levels()
    if len(order) == len(g.nodes):
        return
    reached = np.zeros(len(g.nodes), dtype=bool)
    reached[order] = True
    cyclic = np.flatnonzero(~reached).tolist()
    cycle = _find_cycle(g, cyclic)
    shown = " -> ".join(_node_name(g, n) for n in cycle[:_CYCLE_SHOW])
    if len(cycle) > _CYCLE_SHOW:
        shown += f" -> ... ({len(cycle)} nodes)"
    yield graph_cycle.finding(
        f"graph is not a DAG: {len(cyclic)} node(s) lie on or downstream of a cycle; "
        f"one cycle: {shown}",
        node=cycle[0],
    )


def _find_cycle(g: MessagePassingGraph, cyclic: list[int]) -> list[int]:
    """One concrete cycle among the nodes Kahn never freed, in edge order.

    Each such node keeps a predecessor Kahn never freed either, so
    walking predecessors inside that set must revisit a node, and the
    walk from that node's first visit is a cycle.  It is shown from its
    lowest node id.
    """
    unfreed = set(cyclic)
    seen: dict[int, int] = {}  # node -> position on the walk
    walk: list[int] = []
    node = cyclic[0]
    while node not in seen:
        seen[node] = len(walk)
        walk.append(node)
        node = next(s for s in g.edge_src[g.in_edge_ids(node)].tolist() if s in unfreed)
    cycle = walk[seen[node] :][::-1]
    first = cycle.index(min(cycle))
    return cycle[first:] + cycle[:first]


def _node_name(g: MessagePassingGraph, node_id: int) -> str:
    phase = int(g.node_phase[node_id])
    if phase == Phase.VIRTUAL:
        return g.node_label[node_id] or f"virtual#{node_id}"
    return f"r{g.node_rank[node_id]}#{g.node_seq[node_id]}.{'S' if phase == 0 else 'E'}"


def _located(g: MessagePassingGraph, node_id: int) -> dict:
    """A finding's ``rank`` and ``seq`` for node ``node_id`` (None where
    it has none)."""
    rank = int(g.node_rank[node_id])
    seq = None if g.node_phase[node_id] == Phase.VIRTUAL else int(g.node_seq[node_id])
    return {"rank": rank if rank >= 0 else None, "seq": seq}


@rule(
    id="MPG102",
    code="unmatched-endpoint",
    severity=Severity.ERROR,
    category="graph",
    summary="every channel must carry equal send and receive counts",
    rationale=(
        "Order-based matching pairs the n-th send with the n-th receive per "
        "(src, dst, tag) channel; unequal counts leave endpoints without a "
        "counterpart and no message edge can be anchored for them (§4.1)."
    ),
)
def unmatched_endpoint(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    sends: Counter = Counter()
    recvs: Counter = Counter()
    for events in ctx.per_rank:
        for ev in events:
            if ev.kind in (EventKind.SEND, EventKind.ISEND):
                sends[(ev.rank, ev.peer, ev.tag)] += 1
            elif ev.kind in (EventKind.RECV, EventKind.IRECV):
                recvs[(ev.peer, ev.rank, ev.tag)] += 1
            elif ev.kind == EventKind.SENDRECV:
                sends[(ev.rank, ev.peer, ev.tag)] += 1
                recvs[(ev.recv_peer, ev.rank, ev.recv_tag)] += 1
    for channel in sorted(set(sends) | set(recvs)):
        ns, nr = sends.get(channel, 0), recvs.get(channel, 0)
        if ns != nr:
            src, dst, tag = channel
            yield unmatched_endpoint.finding(
                f"channel {src}->{dst} tag {tag}: {ns} send(s) but {nr} receive(s)",
                rank=src if ns > nr else dst,
            )


@rule(
    id="MPG103",
    code="collective-mismatch",
    severity=Severity.ERROR,
    category="graph",
    summary="all ranks must perform the same ordered collective sequence",
    rationale=(
        "MPI requires collectives on a communicator to be invoked in the same "
        "order everywhere; ordinal-based matching builds one subgraph per "
        "instance, so diverging kinds, roots, or counts corrupt the collective "
        "templates (Fig. 4)."
    ),
)
def collective_mismatch(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    per_rank_colls: list[list] = [
        [ev for ev in events if ev.kind in COLLECTIVE_KINDS] for events in ctx.per_rank
    ]
    if not per_rank_colls:
        return
    reference = per_rank_colls[0]
    for rank in range(1, len(per_rank_colls)):
        seq = per_rank_colls[rank]
        if len(seq) != len(reference):
            yield collective_mismatch.finding(
                f"rank {rank} performed {len(seq)} collective(s), rank 0 performed "
                f"{len(reference)}",
                rank=rank,
            )
            continue
        for i, (ref, ev) in enumerate(zip(reference, seq)):
            if ev.kind != ref.kind:
                yield collective_mismatch.finding(
                    f"collective #{i}: rank 0 called {ref.kind.name}, rank {rank} "
                    f"called {ev.kind.name}",
                    rank=rank,
                    seq=ev.seq,
                )
            elif ref.root != ev.root:
                yield collective_mismatch.finding(
                    f"collective #{i} ({ev.kind.name}): rank 0 says root {ref.root}, "
                    f"rank {rank} says root {ev.root}",
                    rank=rank,
                    seq=ev.seq,
                )


@rule(
    id="MPG104",
    code="invalid-edge-weight",
    severity=Severity.ERROR,
    category="graph",
    summary="local edges must carry finite, nonnegative weights",
    rationale=(
        "Local edge weights are observed elapsed intervals; a negative or "
        "non-finite weight would subtract time during propagation and poison "
        "every downstream completion time."
    ),
)
def invalid_edge_weight(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    g = ctx.graph
    if g is None:
        return
    w = g.edge_weight
    local = g.edge_kind == EdgeKind.LOCAL
    for ei in np.flatnonzero(np.where(local, (w < 0) | ~np.isfinite(w), np.isnan(w))).tolist():
        src, dst = int(g.edge_src[ei]), int(g.edge_dst[ei])
        yield invalid_edge_weight.finding(
            f"{'local' if local[ei] else 'message'} edge "
            f"{_node_name(g, src)} -> {_node_name(g, dst)} has weight {float(w[ei])!r}",
            **_located(g, src),
            edge=(src, dst),
        )


@rule(
    id="MPG105",
    code="orphan-node",
    severity=Severity.WARNING,
    category="graph",
    summary="every subevent node should connect to a rank chain",
    rationale=(
        "Propagation reaches nodes through the per-rank chains; a node no rank "
        "chain can reach holds a frozen completion time, so delays routed "
        "through it silently vanish from the analysis."
    ),
)
def orphan_node(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    g = ctx.graph
    if g is None or not g.nodes:
        return
    n = len(g.nodes)
    virtual = g.node_phase == Phase.VIRTUAL
    degree = np.bincount(g.edge_src, minlength=n) + np.bincount(g.edge_dst, minlength=n)
    seen = ~virtual & (degree > 0)  # every subevent with an edge, and what it reaches
    g.spread(seen, undirected=True)
    for node in np.flatnonzero(~seen).tolist():
        yield orphan_node.finding(
            f"{'virtual node' if virtual[node] else 'subevent'} "
            f"{g.node_label[node] or _node_name(g, node)} (node {node}) "
            "is unreachable from every rank chain",
            **_located(g, node),
            node=node,
        )
