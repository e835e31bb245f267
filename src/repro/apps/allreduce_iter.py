"""Iterative solver surrogate: compute + global reduction per step.

The conjugate-gradient-shaped pattern whose collectives make "a single
slow processor induce idle time in all other processors" (§3.2) — the
workload where collective modeling accuracy (Fig. 4 hub vs explicit
butterfly, ABL1) matters most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.mpisim.api import Allreduce, Compute, Op, RankInfo

__all__ = ["AllreduceIterParams", "allreduce_iter"]


@dataclass(frozen=True)
class AllreduceIterParams:
    """Configuration of the collective-heavy iteration.

    iterations:
        Solver steps (each ends in one allreduce).
    reduce_bytes:
        Reduction payload (two dot products of doubles ≈ 16 B).
    compute_cycles:
        Per-step local work (sparse matvec surrogate).
    imbalance:
        Deterministic per-rank work spread: rank r computes
        ``compute_cycles * (1 + imbalance * r / p)``.
    """

    iterations: int = 20
    reduce_bytes: int = 16
    compute_cycles: float = 30_000.0
    imbalance: float = 0.0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.compute_cycles < 0 or self.imbalance < 0:
            raise ValueError("compute_cycles and imbalance must be >= 0")


def allreduce_iter(params: AllreduceIterParams = AllreduceIterParams()):
    """Rank program factory for the CG-style iteration."""

    def program(me: RankInfo) -> Iterator[Op]:
        cost = params.compute_cycles * (1.0 + params.imbalance * me.rank / me.size)
        for _ in range(params.iterations):
            yield Compute(cost)
            yield Allreduce(nbytes=params.reduce_bytes)

    return program
