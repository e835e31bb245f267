"""The object-graph reference oracle for delta propagation (§4.2, §6).

One scalar pass over the Kahn order of a built graph, one Python float
per node: the readable statement of the model that the tests hold every
production engine to (the compiled plan behind
:func:`repro.core.propagate`, flat and coarse; the streaming engine; the
critical path of :func:`repro.diagnose.extract_critical_path`).  No
production code imports it; ``monte_carlo(engine="graph")`` loads it on
that branch only.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.builder import BuildResult
from repro.core.graph import MessagePassingGraph
from repro.core.perturb import PerturbationSpec
from repro.core.traversal import TraversalResult, _DeltaApplier

__all__ = ["propagate", "longest_weighted_path"]


def propagate(
    build: BuildResult, spec: PerturbationSpec, mode: str = "additive"
) -> TraversalResult:
    """Propagate sampled perturbations over a built graph, node by node."""
    g = build.graph
    applier = _DeltaApplier(spec, mode)
    edge_delta = [applier.effective(e.delta, e.weight) for e in g.edges]
    edges = g.edges
    D = [0.0] * len(g.nodes)
    for v in g.topological_order():
        ins = g.in_edge_ids(v)
        if ins:
            D[v] = max(D[edges[ei].src] + edge_delta[ei] for ei in ins)
    final_delay, final_times = _finals_from_graph(g, D)
    return TraversalResult(
        final_delay=final_delay,
        final_local_times=final_times,
        mode=mode,
        clamped_edges=applier.clamped,
        node_delay=D,
        edge_delta=edge_delta,
    )


def _finals_from_graph(g: MessagePassingGraph, D: Sequence[float]) -> tuple[list, list]:
    """Per-rank final delay and perturbed local time, read at each
    rank's final node (0.0 for a rank with no nodes)."""
    final_delay: list[float] = []
    final_times: list[float] = []
    for rank in range(g.nprocs):
        nid = g.final_node_of(rank)
        if nid is None:
            final_delay.append(0.0)
            final_times.append(0.0)
            continue
        final_delay.append(D[nid])
        final_times.append(g.nodes[nid].t_local + D[nid])
    return final_delay, final_times


def longest_weighted_path(
    build: BuildResult, costs: Sequence[float]
) -> tuple[list, list]:
    """Longest weighted path to every node, with predecessor tracking.

    ``costs[ei]`` is edge ``ei``'s effective cost (for diagnosis: the
    observed weight, optionally plus a sampled delta).  Returns
    ``(L, pred)``: ``L[v]`` is the cost of the heaviest path from any
    source to ``v`` (0.0 for sources) and ``pred[v]`` the in-edge id
    binding that maximum (-1 for sources) — so the path itself is
    recoverable by backtracking, not just its length.

    Ties break toward the *first* in-edge in ``g.in_edge_ids`` order,
    which is exactly the tie-break of
    :func:`repro.core.analysis.binding_chain` over the path costs of
    :meth:`~repro.core.compiled.CompiledPlan.walk` (``mode=None``); the
    two therefore recover bit-identical paths.
    """
    g = build.graph
    if len(costs) != len(g.edges):
        raise ValueError("costs length does not match edge count")
    edges = g.edges
    L = [0.0] * len(g.nodes)
    pred = [-1] * len(g.nodes)
    for v in g.topological_order():
        best = -math.inf
        binding = -1
        for ei in g.in_edge_ids(v):
            c = L[edges[ei].src] + costs[ei]
            if c > best:
                best = c
                binding = ei
        if binding >= 0:
            L[v] = best
            pred[v] = binding
    return L, pred
