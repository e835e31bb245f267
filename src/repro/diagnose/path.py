"""Critical-path extraction: the longest weighted path into a finalize.

Where :func:`repro.core.analysis.critical_path` backtracks the binding
chain of a *perturbed* traversal (which edges carried the sampled
delay), this module answers the unperturbed question: which chain of
observed intervals determined the run's end-to-end makespan?  The path
is the longest weighted path from any source to the latest finalize,
computed over the per-edge base weights (optionally plus sampled
deltas).

The path costs come from :meth:`~repro.core.compiled.CompiledPlan.walk`
over the costs as given (``mode=None``: unclamped, since a cost may lie
below ``-weight``, e.g. an ``absolute_weights`` build's negative message
weight); the chain itself is recovered by
:func:`~repro.core.analysis.binding_chain`, the same backward walk
:func:`~repro.core.analysis.critical_path` uses.  It breaks ties toward
the *first* in-edge in ``graph.in_edge_ids`` order, exactly like the
scalar reference oracle
:func:`~repro.testing.oracle.longest_weighted_path`, so the extracted
edge sequence equals the oracle's bit for bit — the property the test
suite pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.analysis import binding_chain
from repro.core.builder import BuildResult
from repro.core.compiled import compiled_plan

__all__ = ["CriticalPathExtract", "extract_critical_path", "path_costs"]


@dataclass(frozen=True)
class CriticalPathExtract:
    """The longest weighted source-to-finalize chain of one build.

    ``edges`` are edge ids in source-to-sink order; ``nodes`` the
    visited node ids (``len(edges) + 1`` entries); ``costs`` the
    per-edge cost actually used (aligned with ``edges``).
    """

    sink_rank: int
    total_cost: float
    edges: tuple[int, ...]
    nodes: tuple[int, ...]
    costs: tuple[float, ...]
    final_costs: tuple[float, ...]  # per-rank path cost into each finalize
    engine: str = "compiled"  # the kernel that computed it (reports carry it)

    def __len__(self) -> int:
        return len(self.edges)

    def runner_up_ratio(self) -> float:
        """Second-longest per-rank path cost relative to the makespan.

        Near 1.0 the run is balanced (other ranks' paths are just as
        long, the sink was a tie-break); near 0.0 every other rank
        finishes far earlier — the serialization signature.
        """
        others = [
            c for r, c in enumerate(self.final_costs) if r != self.sink_rank
        ]
        if not others or self.total_cost <= 0:
            return 1.0
        return max(others) / self.total_cost

    def as_dict(self) -> dict:
        return {
            "sink_rank": self.sink_rank,
            "total_cost": self.total_cost,
            "edges": list(self.edges),
            "nodes": list(self.nodes),
            "costs": list(self.costs),
            "final_costs": list(self.final_costs),
            "engine": self.engine,
        }


def path_costs(build: BuildResult, deltas: Sequence[float] | None = None) -> np.ndarray:
    """Per-edge path costs: observed weights, plus sampled deltas if given."""
    w = build.graph.edge_weight
    if deltas is not None:
        d = np.asarray(deltas, dtype=np.float64)
        if d.shape != w.shape:
            raise ValueError(f"deltas shape {d.shape} does not match {w.shape} edges")
        w = w + d
    return w


def extract_critical_path(
    build: BuildResult,
    deltas: Sequence[float] | None = None,
) -> CriticalPathExtract:
    """Extract the critical path ending at the latest finalize.

    The sink is the finalize node with the largest path cost, ties
    broken toward the lowest rank.
    """
    costs = path_costs(build, deltas)

    with obs.span("diagnose.path", engine="compiled"):
        plan = compiled_plan(build)
        walk = plan.walk(1, lambda cols, span: costs[None, cols], None, detail=True)
        final_costs = walk.delays[0].tolist()  # 0.0 where a rank has no finalize
        finals = plan.final_node.tolist()
        # A sink's cost exceeds -inf (so is no NaN); max keeps the first of equals.
        sinks = [r for r, nid in enumerate(finals) if nid >= 0 and final_costs[r] > -math.inf]
        if not sinks:
            raise ValueError("graph has no finalize nodes: nothing to diagnose")
        sink_rank = max(sinks, key=final_costs.__getitem__)

        costs = costs.tolist()
        L = walk.node_delay[0].tolist()
        path, nodes = binding_chain(build.graph, L, costs, finals[sink_rank], -math.inf)
        obs.span_add("diagnose.path_edges", len(path))

    return CriticalPathExtract(
        sink_rank=sink_rank,
        total_cost=final_costs[sink_rank],
        edges=tuple(path),
        nodes=tuple(nodes),
        costs=tuple(costs[ei] for ei in path),
        final_costs=tuple(final_costs),
    )
