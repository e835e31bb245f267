"""Correctness guarantees of the perturbed graph (§4.3).

The paper's key invariant: modifying event timings must never cause an
event to occur *prematurely* relative to its counterparts — message
order must stay true to the trace-generating run.  With nonnegative
deltas this holds by construction (delays only push forward); this
module provides the machine checks:

* :func:`check_order_preserved` — verifies every rank's perturbed
  subevent times are monotone and every matched transfer still
  completes no earlier than its send started (the premature-event test);
* :func:`async_warnings` — detects the "worst case" of §4.3: a sender
  issuing nonblocking sends it never completes (and receivers that
  never complete their receives), for which the tool "cannot guarantee
  that an arbitrarily perturbed graph is correct and produces a
  warning";
* :func:`clamp_warnings` — reports negative-delta clamping (the §7
  reduced-noise exploration can push an edge's effective weight to its
  zero floor, at which point speedups stop propagating).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import BuildResult, _match_warnings
from repro.core.diagnostics import AnalysisWarning
from repro.core.graph import EdgeKind, Phase
from repro.core.traversal import TraversalResult

__all__ = ["CorrectnessReport", "check_correctness", "check_order_preserved", "async_warnings"]

_TIME_EPS = 1e-6


@dataclass
class CorrectnessReport:
    """Outcome of all §4.3 checks for one perturbed traversal."""

    order_violations: list = field(default_factory=list)
    async_warnings: list = field(default_factory=list)
    clamp_warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.order_violations

    @property
    def warnings(self) -> list:
        return self.async_warnings + self.clamp_warnings

    def summary(self) -> str:
        return (
            f"{len(self.order_violations)} order violation(s), "
            f"{len(self.async_warnings)} async warning(s), "
            f"{len(self.clamp_warnings)} clamp warning(s)"
        )


def check_order_preserved(build: BuildResult, result: TraversalResult) -> list[str]:
    """Verify the perturbed schedule preserves the run's event order.

    Requires an in-core traversal result (``node_delay``).  Checks per
    rank that perturbed subevent times ``t_local + D`` are monotone in
    trace order, and per edge that the delay actually propagated
    (``D(dst) >= D(src) + δ_eff`` up to rounding) — violations indicate
    a builder or traversal bug, not a property of the input.
    """
    if result.node_delay is None:
        raise ValueError("order check requires an in-core traversal result")
    g = build.graph
    D = np.asarray(result.node_delay, dtype=np.float64)
    violations: list[str] = []
    ptr, chains = g.rank_chains()
    seq, phase = g.node_seq, g.node_phase
    perturbed = g.node_t_local[chains] + D[chains]
    for rank in range(g.nprocs):
        a, b = int(ptr[rank]), int(ptr[rank + 1])
        t = perturbed[a:b]
        # Running max of the times so far (NaN times never raise it).
        seen = np.maximum.accumulate(np.where(np.isnan(t), -np.inf, t))
        prev_t = np.concatenate(([-np.inf], seen[:-1]))
        for i in np.nonzero(t < prev_t - _TIME_EPS)[0].tolist():
            node, prev = chains[a + i], chains[a + i - 1]
            violations.append(
                f"rank {rank}: subevent #{seq[node]}.{Phase(phase[node]).name} at "
                f"perturbed time {float(t[i]):.3f} precedes predecessor "
                f"(#{seq[prev]}.{Phase(phase[prev]).name}) at {float(prev_t[i]):.3f}"
            )
    if result.edge_delta is not None:
        src, dst = g.edge_src, g.edge_dst
        delta = np.asarray(result.edge_delta, dtype=np.float64)
        for ei in np.nonzero(D[dst] < D[src] + delta - _TIME_EPS)[0].tolist():
            label = g.edge_label[ei] or EdgeKind(g.edge_kind[ei]).name
            violations.append(f"edge {src[ei]}->{dst[ei]} ({label}): delay not propagated")
    return violations


def async_warnings(build: BuildResult) -> list[AnalysisWarning]:
    """§4.3 warnings: nonblocking operations whose completion was never
    checked, so perturbations through them cannot be anchored.

    Returns the structured warnings the builder recorded (recomputed
    here so hand-assembled :class:`BuildResult` objects work too).
    """
    if build.warnings:
        return list(build.warnings)
    return _match_warnings(build.match, build.frames)


def clamp_warnings(result: TraversalResult) -> list[AnalysisWarning]:
    if result.clamped_edges:
        return [
            AnalysisWarning(
                f"{result.clamped_edges} edge delta(s) clamped at the zero-weight floor "
                f"(negative perturbations cannot shrink an interval below zero)",
                code="clamped-deltas",
                count=result.clamped_edges,
            )
        ]
    return []


def check_correctness(build: BuildResult, result: TraversalResult) -> CorrectnessReport:
    """Run every §4.3 check applicable to ``result``."""
    report = CorrectnessReport()
    report.async_warnings = async_warnings(build)
    report.clamp_warnings = clamp_warnings(result)
    if result.node_delay is not None:
        report.order_violations = check_order_preserved(build, result)
    return report
