"""Rank-to-rank noise influence analysis.

Beyond "how much slower does the run get" the graph answers *whose*
noise hurts *whom*: perturb one rank at a time and record every rank's
resulting delay.  The influence matrix exposes the communication
structure's sensitivity topology — in a lockstep ring every row is
dense (everyone delays everyone), in a master/worker farm only the
master's row matters.  This operationalizes §4.2's "regions where
perturbations are absorbed or fully propagated" at rank granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.builder import BuildResult
from repro.core.checkpoint import (
    CheckpointStore,
    ShardKey,
    build_digest,
    resolve_rows,
    signature_digest,
)
from repro.core.parallel import FaultPolicy, resolve_backend
from repro.core.perturb import PerturbationSpec
from repro.noise.distributions import RandomVariable
from repro.noise.signature import MachineSignature

__all__ = ["InfluenceMatrix", "rank_influence"]


@dataclass(frozen=True)
class InfluenceMatrix:
    """``matrix[i, j]`` = rank j's delay when only rank i is noisy."""

    matrix: np.ndarray
    noise_mean: float

    @property
    def nprocs(self) -> int:
        return self.matrix.shape[0]

    def influence_of(self, rank: int) -> np.ndarray:
        """Delays caused on every rank by rank ``rank``'s noise."""
        return self.matrix[rank]

    def total_influence(self) -> np.ndarray:
        """Per source rank: summed delay it inflicts on all ranks —
        the 'most dangerous rank to put on a noisy node' ranking."""
        return self.matrix.sum(axis=1)

    def sensitivity(self) -> np.ndarray:
        """Per victim rank: summed delay it suffers across sources."""
        return self.matrix.sum(axis=0)

    def spread(self, rank: int, threshold_fraction: float = 0.05) -> int:
        """How many ranks receive at least ``threshold_fraction`` of the
        source's self-delay — the blast radius of one noisy node."""
        row = self.matrix[rank]
        self_delay = row[rank] if row[rank] > 0 else row.max()
        if self_delay <= 0:
            return 0
        return int(np.sum(row >= threshold_fraction * self_delay))

    def table(self) -> str:
        lines = ["victim:  " + " ".join(f"{j:>9}" for j in range(self.nprocs))]
        for i in range(self.nprocs):
            cells = " ".join(f"{v:>9,.0f}" for v in self.matrix[i])
            lines.append(f"src {i:>3}: {cells}")
        return "\n".join(lines)


def _compiled_influence_row(payload, item) -> np.ndarray:
    """Worker body: one source rank's row through the compiled kernel."""
    plan, mode = payload
    seed, spec = item
    with obs.span("replicate", seed=seed):
        obs.span_add("mc.replicates")
        return plan.propagate_batch(spec, seeds=[seed], mode=mode).delays[0]


def rank_influence(
    build: BuildResult,
    noise: RandomVariable,
    seed: int = 0,
    mode: str = "additive",
    jobs: int | None = 0,
    policy: FaultPolicy | None = None,
    checkpoint: CheckpointStore | str | None = None,
    resume: bool = False,
) -> InfluenceMatrix:
    """Compute the influence matrix: one propagation per source rank,
    with ``noise`` as that rank's (only) δ_os distribution.

    The per-source propagations are independent; ``jobs`` fans them out
    across worker processes (:mod:`repro.core.parallel`) with
    bit-identical results.  All source rows reuse one
    :class:`~repro.core.compiled.CompiledPlan` (topology is
    signature-independent).

    ``policy`` is the pool's :class:`~repro.core.parallel.FaultPolicy`
    (a skipped row comes back NaN).  ``checkpoint``/``resume`` shard the
    matrix one row per source rank, keyed by that row's single-noisy-
    rank signature digest — a killed matrix computation resumes at the
    first missing row.
    """
    store = CheckpointStore.coerce(checkpoint)
    p = build.graph.nprocs
    items = []
    for src in range(p):
        sig = MachineSignature(os_noise_by_rank={src: noise}, name=f"only-rank-{src}")
        items.append((seed, PerturbationSpec(sig, seed=seed)))

    def compute(indices) -> list:
        sub = [items[i] for i in indices]
        from repro.core.compiled import compiled_plan

        plan = compiled_plan(build)
        backend = resolve_backend(jobs, policy=policy)
        return backend.map(_compiled_influence_row, sub, payload=(plan, mode))

    if store is None:
        rows = compute(range(p))
    else:
        context = build_digest(build)
        keys = [
            ShardKey(
                "influence",
                seed,
                signature_digest(items[src][1].signature),
                1.0,
                mode,
                "compiled",
                context,
            )
            for src in range(p)
        ]
        rows = resolve_rows(store, keys, compute, resume=resume)
    rows = [row if row is not None else [np.nan] * p for row in rows]
    matrix = np.array(rows, dtype=float).reshape(p, p)
    return InfluenceMatrix(matrix=matrix, noise_mean=noise.mean())
