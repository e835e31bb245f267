"""Monte-Carlo perturbation analysis.

Section 5 treats every perturbation parameter as a random variable, so a
single propagation is one *sample* of the perturbed-runtime
distribution.  Repeating the traversal over independent seeds gives the
distribution itself — mean, quantiles, and the probability of exceeding
a runtime budget — which is what a procurement decision (§7) actually
needs ("will this app meet its deadline on that machine 95% of the
time?").

Deterministic per-edge sampling makes each replicate exactly
reproducible from ``(base_seed, replicate_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
from repro.core.parallel import FaultPolicy, map_replicate_batches, replicate_items
from repro.core.diagnostics import DiagnosticError
from repro.core.perturb import PerturbationSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.bounds import MakespanBounds

__all__ = ["DelayDistribution", "monte_carlo"]

#: Engines accepted by :func:`monte_carlo`: the compiled plan, or
#: "graph", the object-graph reference oracle (bit-identical to it).
ENGINES = ("compiled", "graph")


@dataclass(frozen=True)
class DelayDistribution:
    """Empirical distribution of per-rank delays over MC replicates.

    ``samples`` has shape (replicates, nprocs); ``makespan_samples`` is
    the per-replicate max over ranks (the quantity §6 reports).
    """

    samples: np.ndarray
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.samples.ndim != 2:
            raise ValueError(
                f"samples must be 2-D (replicates, nprocs), got shape {self.samples.shape}"
            )
        if self.samples.shape[0] != len(self.seeds):
            raise ValueError(
                f"samples rows ({self.samples.shape[0]}) must match "
                f"seeds ({len(self.seeds)})"
            )

    @property
    def replicates(self) -> int:
        return self.samples.shape[0]

    @property
    def nprocs(self) -> int:
        return self.samples.shape[1]

    @property
    def makespan_samples(self) -> np.ndarray:
        return self.samples.max(axis=1)

    def mean(self) -> float:
        """Expected makespan delay."""
        return float(self.makespan_samples.mean())

    def std(self) -> float:
        return float(self.makespan_samples.std())

    def quantile(self, q) -> np.ndarray:
        """Makespan-delay quantile(s)."""
        return np.quantile(self.makespan_samples, q)

    def exceedance_probability(self, budget: float) -> float:
        """P(makespan delay > budget) — the §5 tolerance question in
        probabilistic form."""
        return float(np.mean(self.makespan_samples > budget))

    def rank_mean(self) -> np.ndarray:
        """Per-rank expected delay."""
        return self.samples.mean(axis=0)

    def summary(self) -> str:
        q = self.quantile([0.05, 0.5, 0.95])
        return (
            f"{self.replicates} replicates: makespan delay "
            f"mean {self.mean():,.0f} ± {self.std():,.0f} cy, "
            f"p5/p50/p95 = {q[0]:,.0f}/{q[1]:,.0f}/{q[2]:,.0f} cy"
        )


def monte_carlo(
    build: BuildResult,
    spec: PerturbationSpec,
    replicates: int = 100,
    mode: str = "additive",
    jobs: int | None = 0,
    chunk_size: int | None = None,
    engine: str = "compiled",
    policy: FaultPolicy | None = None,
    checkpoint: CheckpointStore | str | None = None,
    resume: bool = False,
    bounds: "MakespanBounds | None" = None,
) -> DelayDistribution:
    """Propagate ``replicates`` independent perturbation samples.

    Replicate ``i`` uses seed ``spec.seed + i`` (every edge re-sampled
    independently across replicates, identically within one).

    ``jobs`` fans replicates out across worker processes
    (:mod:`repro.core.parallel`): 0 = serial, None = one per core,
    N >= 2 = a pool of N.  Results are bit-identical across backends
    because every replicate carries its own seed.

    ``engine`` selects the propagation engine: ``"compiled"`` (the
    default) lowers the build once into a
    :class:`~repro.core.compiled.CompiledPlan` and runs all replicates
    through the replicate-batched numpy kernel, returning the
    ``(replicates, nprocs)`` sample matrix directly; ``"graph"`` runs the
    object-graph reference oracle (:mod:`repro.testing.oracle`) once per
    replicate, in process only (``jobs`` must be 0 or 1).  Both produce
    bit-identical samples.

    ``policy`` governs chunk-level timeouts/retries/failure handling in
    the pool backend (:class:`~repro.core.parallel.FaultPolicy`).  Under
    ``on_failure="skip"`` an abandoned chunk's rows come back as NaN.

    ``checkpoint`` (a directory or :class:`~repro.core.checkpoint.
    CheckpointStore`) persists one shard per replicate, keyed by
    ``(seed, signature digest, scale, mode, engine, build digest)``;
    ``resume=True`` reads existing shards first and computes only the
    missing replicates — bit-identical to an uninterrupted run, because
    every replicate is a pure function of its key.

    The compiled engine coarsens large iterative builds automatically
    (:mod:`repro.core.coarsen`), bit-identical to the flat plan.

    ``bounds`` (a :class:`~repro.verify.bounds.MakespanBounds` from the
    static verifier) arms the runtime cross-check: every replicate's
    per-rank delay is asserted to fall inside the certified enclosure,
    and a violation raises a :class:`~repro.core.diagnostics.
    DiagnosticError` with code ``containment-violation`` — the bounds
    are exact by construction, so an escape means the static model and
    the sampler disagree and the run's statistics cannot be trusted.
    The bounds must certify the same ``scale`` and ``mode`` as this
    run (``repro-analyze --verify`` wires this up).
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "graph" and jobs not in (0, 1):
        raise ValueError(
            f"engine='graph' is the in-process reference engine: jobs must be 0 or 1, got {jobs}"
        )
    store = CheckpointStore.coerce(checkpoint)
    with obs.span("monte_carlo", replicates=replicates, mode=mode, jobs=jobs, engine=engine):
        seeds = tuple(seed for seed, _ in replicate_items(spec, replicates))

        def compute(indices) -> list:
            sub = [seeds[i] for i in indices]
            if engine == "graph":
                from repro.testing.oracle import propagate

                obs.span_add("mc.replicates", len(sub))
                return [
                    propagate(
                        build, PerturbationSpec(spec.signature, seed=seed, scale=spec.scale), mode
                    ).final_delay
                    for seed in sub
                ]
            from repro.core.compiled import compiled_plan

            return list(
                map_replicate_batches(
                    compiled_plan(build),
                    spec.signature,
                    sub,
                    scale=spec.scale,
                    mode=mode,
                    jobs=jobs,
                    chunk_size=chunk_size,
                    policy=policy,
                )
            )

        if store is None:
            rows = compute(range(replicates))
        else:
            sig_digest = signature_digest(spec.signature)
            context = build_digest(build)
            keys = [
                ShardKey("mc", seed, sig_digest, spec.scale, mode, engine, context)
                for seed in seeds
            ]
            rows = resolve_rows(store, keys, compute, resume=resume)
        nprocs = build.graph.nprocs
        samples = np.array(
            [row if row is not None else [np.nan] * nprocs for row in rows], dtype=float
        )
        if bounds is not None:
            bad = bounds.violations(samples)
            if bad:
                raise DiagnosticError(
                    f"replicate {bad[0]} (seed {seeds[bad[0]]}) escaped the "
                    f"certified static bounds "
                    f"[{bounds.makespan_lo:,.0f}, {bounds.makespan_hi:,.0f}] cy "
                    f"({len(bad)} of {len(seeds)} replicates outside)",
                    code="containment-violation",
                )
            obs.add("monte_carlo.bounds_checked", len(seeds))
    return DelayDistribution(samples=samples, seeds=seeds)
