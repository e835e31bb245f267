"""Certified makespan bounds by interval abstract interpretation.

Instead of *sampling* the perturbed graph (Monte-Carlo, §5) this module
propagates guaranteed per-edge delay **intervals** through the exact
same compiled level schedule, producing per-rank and makespan bounds
``[lo, hi]`` that every possible replicate is contained in — without
drawing a single sample.

Soundness argument, end to end:

1. Every primitive draw the perturbation engine makes is clamped at
   zero (:class:`~repro.noise.signature.MachineSignature` samplers), so
   its value lies in the clamped support interval of its distribution
   (:func:`~repro.verify.intervals.support_interval`; quantile-bounded
   for unbounded families — the one explicit soundness caveat).
2. A :class:`~repro.core.perturb.PerturbationSpec` composes an edge's
   draws by the kind's :data:`~repro.core.perturb.DRAW_RECIPES` entry:
   a left-to-right sum from 0.0 (an interval-scaled OS term is
   ``np.sum`` of its k draws; a δ_t term is one draw times nbytes), then
   one scale.  :func:`edge_intervals` folds the same terms at their
   endpoints in the same order, with the same operations, and IEEE
   rounding is monotone, so the folded endpoints bracket every sample
   exactly.
3. :meth:`CompiledPlan.walk <repro.core.compiled.CompiledPlan.walk>`
   — the one pass every replicate takes — applies the mode transfer and
   the level steps with only ``+``/``max``/floor-clamps, which are
   monotone in IEEE float arithmetic.  Walking the ``lo`` and ``hi``
   rows through it therefore brackets every replicate's per-rank delay
   exactly — no epsilon, no tolerance.

The walk takes the phase-template schedule when the plan carries a
:class:`~repro.core.coarsen.CoarseIR` and the flat level schedule
otherwise, with the same floats either way, so bounds are
bit-identical on coarse and flat plans, and million-event stress
traces verify in seconds instead of walking a million flat levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.compiled import CompiledPlan
from repro.core.perturb import DRAW_RECIPES, const_term
from repro.noise.distributions import RandomVariable
from repro.noise.signature import MachineSignature
from repro.verify.intervals import DEFAULT_QUANTILE, Interval, support_interval

__all__ = ["EdgeIntervals", "MakespanBounds", "edge_intervals", "makespan_bounds"]


@dataclass(frozen=True)
class EdgeIntervals:
    """Per-edge raw-delta enclosures (pre mode transfer).

    ``lo``/``hi`` have length ``n_edges``; ``lo_q``/``hi_q`` flag
    endpoints that are quantile-bounded rather than absolute.
    """

    lo: np.ndarray
    hi: np.ndarray
    lo_q: np.ndarray
    hi_q: np.ndarray
    quantile: float

    @property
    def q_bounded_edges(self) -> int:
        return int((self.lo_q | self.hi_q).sum())


@dataclass(frozen=True)
class MakespanBounds:
    """A certified per-rank / makespan delay enclosure.

    ``rank_lo``/``rank_hi`` have length ``nprocs``.  ``q_bounded_edges``
    counts edges whose interval is quantile-bounded: when zero the
    certificate is absolute, otherwise it holds up to ``quantile`` per
    affected draw (see :mod:`repro.verify.intervals`).
    """

    rank_lo: np.ndarray
    rank_hi: np.ndarray
    quantile: float
    q_bounded_edges: int
    sampled_edges: int
    scale: float
    mode: str
    coarse: bool

    @property
    def makespan_lo(self) -> float:
        return float(self.rank_lo.max()) if len(self.rank_lo) else 0.0

    @property
    def makespan_hi(self) -> float:
        return float(self.rank_hi.max()) if len(self.rank_hi) else 0.0

    @property
    def absolute(self) -> bool:
        """True when no endpoint needed the finite-support policy."""
        return self.q_bounded_edges == 0

    def contains(self, samples: np.ndarray) -> np.ndarray:
        """Per-replicate containment of a (R, nprocs) delay matrix.

        NaN rows (skipped replicates under fault policies) count as
        contained — there is nothing to check.
        """
        s = np.asarray(samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != len(self.rank_lo):
            raise ValueError(
                f"samples must be (replicates, {len(self.rank_lo)}), got {s.shape}"
            )
        ok = (s >= self.rank_lo[None, :]) & (s <= self.rank_hi[None, :])
        return np.where(np.isnan(s).any(axis=1), True, ok.all(axis=1))

    def violations(self, samples: np.ndarray) -> list[int]:
        """Replicate indices falling outside the enclosure."""
        return [int(i) for i in np.nonzero(~self.contains(samples))[0]]

    def as_dict(self) -> dict[str, Any]:
        return {
            "makespan_lo": self.makespan_lo,
            "makespan_hi": self.makespan_hi,
            "rank_lo": [float(v) for v in self.rank_lo],
            "rank_hi": [float(v) for v in self.rank_hi],
            "quantile": self.quantile,
            "absolute": self.absolute,
            "q_bounded_edges": self.q_bounded_edges,
            "sampled_edges": self.sampled_edges,
            "scale": self.scale,
            "mode": self.mode,
            "coarse": self.coarse,
        }


def _endpoints(intervals: list[Interval]) -> tuple[np.ndarray, np.ndarray]:
    """(2, n) endpoint values (row 0 lo, row 1 hi) and their quantile flags."""
    val = np.array([[iv.lo for iv in intervals], [iv.hi for iv in intervals]], dtype=np.float64)
    flag = np.array([[iv.lo_q for iv in intervals], [iv.hi_q for iv in intervals]], dtype=np.bool_)
    return val, flag


def edge_intervals(
    plan: CompiledPlan,
    signature: MachineSignature,
    scale: float = 1.0,
    quantile: float = DEFAULT_QUANTILE,
) -> EdgeIntervals:
    """Raw-delta enclosure per edge: each kind's ``DRAW_RECIPES`` terms
    folded at their endpoints from 0.0 in the sampler's order, vectorized
    over the plan's structure-of-arrays columns."""
    n = plan.n_edges
    out_val = np.zeros((2, n), dtype=np.float64)
    out_flag = np.zeros((2, n), dtype=np.bool_)
    ids = plan.sampled_ids
    P = plan.nprocs
    if len(ids) == 0:
        return EdgeIntervals(out_val[0], out_val[1], out_flag[0], out_flag[1], quantile)

    def clamped(dist: RandomVariable) -> Interval:
        # Clamped at zero exactly like the signature samplers.
        return support_interval(dist, quantile).clamp_min(0.0)

    os_val, os_flag = _endpoints([clamped(signature.os_noise_for(r)) for r in range(P)])
    lat_val, lat_flag = (
        np.tile(a[:, :, None], (1, P, P)) for a in _endpoints([clamped(signature.latency)])
    )
    for (s, d), dist in signature.latency_by_link.items():
        if 0 <= s < P and 0 <= d < P:
            v, f = _endpoints([clamped(dist)])
            lat_val[:, s, d], lat_flag[:, s, d] = v[:, 0], f[:, 0]
    pb_val, pb_flag = _endpoints([clamped(signature.per_byte)])

    # Each recipe term's (2, len(at)) endpoint values and flags for the
    # sampled-edge positions ``at``.
    rk = np.clip(plan.delta_rank[ids], 0, P - 1)
    sk = np.clip(plan.delta_src[ids], 0, P - 1)
    dk = np.clip(plan.delta_dst[ids], 0, P - 1)
    nbytes = plan.edge_nbytes[ids].astype(np.float64)
    lat_val, lat_flag = lat_val.reshape(2, -1), lat_flag.reshape(2, -1)
    lookups = {
        "os": (os_val, os_flag, rk),
        "lat": (lat_val, lat_flag, sk * P + dk),
        "back": (lat_val, lat_flag, dk * P + sk),
    }

    def term(t: str, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if t == "bytes":
            nb = nbytes[at]
            return np.where(nb > 0, pb_val * nb, 0.0), (nb > 0) & pb_flag
        v, f, index = lookups[t]
        return v.take(index[at], axis=1), f.take(index[at], axis=1)

    val = np.zeros((2, len(ids)), dtype=np.float64)
    flag = np.zeros((2, len(ids)), dtype=np.bool_)
    kind = plan.edge_kind[ids]
    for code, recipe in DRAW_RECIPES.items():
        sel = np.nonzero(kind == int(code))[0]
        reps = plan.delta_rounds[ids[sel]] if recipe.per_round else np.ones(len(sel), np.int64)
        for n_rep in np.unique(reps).tolist():
            at = sel[reps == n_rep]
            cols = [
                _os_span(signature, plan.edge_weight[ids[at]], rk[at], os_val, term(t, at))
                if t == "os" and recipe.os_span
                else term(t, at)
                for t in recipe.terms
            ]
            # Fold term by term from 0.0, as the sampler accumulates
            # draws: float addition is monotone, so the endpoint folds
            # bracket every sample exactly.
            acc = np.zeros((2, len(at)), dtype=np.float64)
            acc_flag = np.zeros((2, len(at)), dtype=np.bool_)
            for _ in range(n_rep):
                for c_val, c_flag in cols:
                    acc += c_val
                    acc_flag |= c_flag
            val[:, at], flag[:, at] = acc, acc_flag

    # Global scale last, exactly like PerturbationSpec.sample; a negative
    # scale flips every interval and its per-side flags.
    side = slice(None) if scale >= 0.0 else slice(None, None, -1)
    out_val[:, ids], out_flag[:, ids] = val[side] * scale, flag[side]
    return EdgeIntervals(out_val[0], out_val[1], out_flag[0], out_flag[1], quantile)


def _os_span(
    signature: MachineSignature,
    weights: np.ndarray,
    rk: np.ndarray,
    os_val: np.ndarray,
    cols: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The os term ``cols`` of OS edges spanning ``weights`` cycles on
    ranks ``rk``: where the signature takes k > 1 draws, each endpoint
    becomes ``const_term``'s sum of k copies of the rank's ``os_val``,
    computed once per distinct (rank, k)."""
    k = signature.os_draw_counts(weights)
    multi = np.nonzero(k > 1)[0]
    if not len(multi):
        return cols
    P = os_val.shape[1]
    pairs, at = np.unique(k[multi] * P + rk[multi], return_inverse=True)
    span = np.array(
        [[const_term(os_val[j, p % P], p // P) for p in pairs.tolist()] for j in (0, 1)]
    )
    val = cols[0].copy()
    val[:, multi] = span[:, at]
    return val, cols[1]


def makespan_bounds(
    plan: CompiledPlan,
    signature: MachineSignature,
    scale: float = 1.0,
    mode: str = "additive",
    quantile: float = DEFAULT_QUANTILE,
) -> MakespanBounds:
    """Walk the lo/hi interval rows through the compiled plan.

    :meth:`CompiledPlan.walk` takes the coarse phase-template walk when
    the plan has one and the flat level schedule otherwise, with the
    same floats — so the bounds do not depend on the ``coarsen``
    setting at all.
    """
    with obs.span("verify.bounds", edges=plan.n_edges, quantile=quantile):
        iv = edge_intervals(plan, signature, scale=scale, quantile=quantile)
        raw2 = np.vstack([iv.lo, iv.hi])
        delays = plan.walk(2, lambda cols, span: raw2[:, cols], mode).delays
        return MakespanBounds(
            rank_lo=delays[0].copy(),
            rank_hi=delays[1].copy(),
            quantile=quantile,
            q_bounded_edges=iv.q_bounded_edges,
            sampled_edges=int(len(plan.sampled_ids)),
            scale=scale,
            mode=mode,
            coarse=plan.coarse is not None,
        )
