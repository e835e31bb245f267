"""1-D halo-exchange stencil with nonblocking communication.

The canonical latency-hiding pattern the paper's §3.1.3 motivates:
post irecvs for both halos, isend both boundary slabs, overlap the
interior computation, then Waitall before touching the halos.  Exercises
the Fig. 3 (nonblocking + wait) subgraph on every edge of the process
line/ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.mpisim.api import Compute, Irecv, Isend, Op, RankInfo, Waitall

__all__ = ["StencilParams", "stencil1d", "stress_params"]


@dataclass(frozen=True)
class StencilParams:
    """Configuration of the halo-exchange stencil.

    iterations:
        Time steps.
    halo_bytes:
        Size of each boundary slab.
    interior_cycles:
        Overlappable interior computation per step.
    boundary_cycles:
        Post-exchange boundary computation per step.
    periodic:
        Ring (True) or open line (False) topology.
    """

    iterations: int = 10
    halo_bytes: int = 2048
    interior_cycles: float = 40_000.0
    boundary_cycles: float = 4_000.0
    periodic: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.halo_bytes < 0 or self.interior_cycles < 0 or self.boundary_cycles < 0:
            raise ValueError("sizes and cycle counts must be >= 0")


_LEFT_TAG = 11
_RIGHT_TAG = 12


def stress_params(iterations: int = 52_000) -> StencilParams:
    """Iteration-scaled million-event stress configuration.

    A periodic ring rank traces five events per step, so 4 ranks at the
    default 52 000 iterations yield a 1 040 008-event trace that builds
    into a ~2.1M-node, ~2.9M-edge graph with 520 003 flat levels — the
    >= 1M-event iterative workload the ``coarsen-scale`` CI job builds,
    coarsens and propagates under its wall-clock and peak-RSS budget.
    Deep and narrow on purpose: the flat engine's cost is dominated by
    per-level dispatch overhead, which is exactly what phase coarsening
    amortizes into one shared template.
    """
    return StencilParams(iterations=iterations)


def stencil1d(params: StencilParams = StencilParams()):
    """Rank program factory for the nonblocking 1-D stencil."""

    def program(me: RankInfo) -> Iterator[Op]:
        p = me.size
        if params.periodic:
            left = (me.rank - 1) % p if p > 1 else None
            right = (me.rank + 1) % p if p > 1 else None
        else:
            left = me.rank - 1 if me.rank > 0 else None
            right = me.rank + 1 if me.rank < p - 1 else None
        if left == me.rank or right == me.rank:  # p == 1 periodic
            left = right = None
        for _ in range(params.iterations):
            requests = []
            if left is not None:
                requests.append((yield Irecv(source=left, tag=_RIGHT_TAG)))
            if right is not None:
                requests.append((yield Irecv(source=right, tag=_LEFT_TAG)))
            if right is not None:
                requests.append(
                    (yield Isend(dest=right, nbytes=params.halo_bytes, tag=_RIGHT_TAG))
                )
            if left is not None:
                requests.append(
                    (yield Isend(dest=left, nbytes=params.halo_bytes, tag=_LEFT_TAG))
                )
            yield Compute(params.interior_cycles)
            if requests:
                yield Waitall(requests)
            yield Compute(params.boundary_cycles)

    return program
