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
2. A :class:`~repro.core.perturb.PerturbationSpec` composes draws per
   edge with sums and nonnegative integer multiplicities only
   (:meth:`~repro.core.perturb.PerturbationSpec.sample`), then scales —
   all interval-monotone, mirrored exactly by :func:`edge_intervals`.
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
from repro.core.graph import DeltaKind
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


def _interval_table(
    intervals: list[Interval],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lo = np.array([iv.lo for iv in intervals], dtype=np.float64)
    hi = np.array([iv.hi for iv in intervals], dtype=np.float64)
    lo_q = np.array([iv.lo_q for iv in intervals], dtype=np.bool_)
    hi_q = np.array([iv.hi_q for iv in intervals], dtype=np.bool_)
    return lo, hi, lo_q, hi_q


def edge_intervals(
    plan: CompiledPlan,
    signature: MachineSignature,
    scale: float = 1.0,
    quantile: float = DEFAULT_QUANTILE,
) -> EdgeIntervals:
    """Raw-delta enclosure per edge, mirroring ``PerturbationSpec.sample``
    delta-kind by delta-kind over the plan's structure-of-arrays columns."""
    n = plan.n_edges
    out_lo = np.zeros(n, dtype=np.float64)
    out_hi = np.zeros(n, dtype=np.float64)
    out_loq = np.zeros(n, dtype=np.bool_)
    out_hiq = np.zeros(n, dtype=np.bool_)
    ids = plan.sampled_ids
    m = len(ids)
    if m == 0:
        return EdgeIntervals(out_lo, out_hi, out_loq, out_hiq, quantile)

    P = plan.nprocs
    # Primitive enclosures, clamped at zero exactly like the signature
    # samplers (sample_os / sample_latency / sample_transfer).
    os_tab = _interval_table(
        [support_interval(signature.os_noise_for(r), quantile).clamp_min(0.0) for r in range(P)]
    )
    lat_default = support_interval(signature.latency, quantile).clamp_min(0.0)
    lat_lo = np.full((P, P), lat_default.lo, dtype=np.float64)
    lat_hi = np.full((P, P), lat_default.hi, dtype=np.float64)
    lat_loq = np.full((P, P), lat_default.lo_q, dtype=np.bool_)
    lat_hiq = np.full((P, P), lat_default.hi_q, dtype=np.bool_)
    for (s, d), dist in signature.latency_by_link.items():
        if 0 <= s < P and 0 <= d < P:
            iv = support_interval(dist, quantile).clamp_min(0.0)
            lat_lo[s, d], lat_hi[s, d] = iv.lo, iv.hi
            lat_loq[s, d], lat_hiq[s, d] = iv.lo_q, iv.hi_q
    pb = support_interval(signature.per_byte, quantile).clamp_min(0.0)

    # Delta metadata columns for the sampled edges.
    d_rank = plan.delta_rank[ids]
    d_src = plan.delta_src[ids]
    d_dst = plan.delta_dst[ids]
    d_rounds = plan.delta_rounds[ids]
    nbytes = plan.edge_nbytes[ids].astype(np.float64)
    kind = plan.edge_kind[ids]

    rk = np.clip(d_rank, 0, P - 1)
    sk = np.clip(d_src, 0, P - 1)
    dk = np.clip(d_dst, 0, P - 1)
    os_lo_e, os_hi_e = os_tab[0][rk], os_tab[1][rk]
    os_loq_e, os_hiq_e = os_tab[2][rk], os_tab[3][rk]
    lat_lo_e, lat_hi_e = lat_lo[sk, dk], lat_hi[sk, dk]
    lat_loq_e, lat_hiq_e = lat_loq[sk, dk], lat_hiq[sk, dk]
    rev_lo_e, rev_hi_e = lat_lo[dk, sk], lat_hi[dk, sk]
    rev_loq_e, rev_hiq_e = lat_loq[dk, sk], lat_hiq[dk, sk]
    has_bytes = nbytes > 0
    tr_lo_e = np.where(has_bytes, pb.lo * nbytes, 0.0)
    tr_hi_e = np.where(has_bytes, pb.hi * nbytes, 0.0)
    tr_loq_e = has_bytes & pb.lo_q
    tr_hiq_e = has_bytes & pb.hi_q

    # OS draw multiplicity: sample_os_interval sums os_draws(weight)
    # independent clamped draws under the interval-scaled extension.
    if signature.os_quantum > 0.0:
        w = plan.edge_weight[ids]
        draws = np.where(w <= 0.0, 1.0, np.maximum(1.0, np.ceil(w / signature.os_quantum)))
    else:
        draws = np.ones(m, dtype=np.float64)

    lo = np.zeros(m, dtype=np.float64)
    hi = np.zeros(m, dtype=np.float64)
    loq = np.zeros(m, dtype=np.bool_)
    hiq = np.zeros(m, dtype=np.bool_)

    def add(
        mask: np.ndarray,
        c_lo: np.ndarray,
        c_hi: np.ndarray,
        c_loq: np.ndarray,
        c_hiq: np.ndarray,
    ) -> None:
        lo[mask] += c_lo[mask]
        hi[mask] += c_hi[mask]
        loq[mask] |= c_loq[mask]
        hiq[mask] |= c_hiq[mask]

    k_os = kind == int(DeltaKind.OS)
    if k_os.any():
        add(k_os, draws * os_lo_e, draws * os_hi_e, os_loq_e, os_hiq_e)
    k_lat = kind == int(DeltaKind.LATENCY)
    if k_lat.any():
        add(k_lat, lat_lo_e, lat_hi_e, lat_loq_e, lat_hiq_e)
    k_tr = kind == int(DeltaKind.TRANSFER)
    if k_tr.any():
        add(k_tr, lat_lo_e + tr_lo_e, lat_hi_e + tr_hi_e, lat_loq_e | tr_loq_e,
            lat_hiq_e | tr_hiq_e)
    k_tros = kind == int(DeltaKind.TRANSFER_OS)
    if k_tros.any():
        add(
            k_tros,
            lat_lo_e + tr_lo_e + os_lo_e,
            lat_hi_e + tr_hi_e + os_hi_e,
            lat_loq_e | tr_loq_e | os_loq_e,
            lat_hiq_e | tr_hiq_e | os_hiq_e,
        )
    k_rt = kind == int(DeltaKind.ROUNDTRIP)
    if k_rt.any():
        add(
            k_rt,
            lat_lo_e + tr_lo_e + os_lo_e + rev_lo_e,
            lat_hi_e + tr_hi_e + os_hi_e + rev_hi_e,
            lat_loq_e | tr_loq_e | os_loq_e | rev_loq_e,
            lat_hiq_e | tr_hiq_e | os_hiq_e | rev_hiq_e,
        )
    k_cf = kind == int(DeltaKind.COLL_FANIN)
    if k_cf.any():
        rounds = d_rounds.astype(np.float64)
        add(
            k_cf,
            rounds * (os_lo_e + lat_lo_e + tr_lo_e),
            rounds * (os_hi_e + lat_hi_e + tr_hi_e),
            os_loq_e | lat_loq_e | tr_loq_e,
            os_hiq_e | lat_hiq_e | tr_hiq_e,
        )

    # Global scale last, exactly like PerturbationSpec.sample; a negative
    # scale flips every interval and its per-side flags.
    if scale >= 0.0:
        out_lo[ids], out_hi[ids] = lo * scale, hi * scale
        out_loq[ids], out_hiq[ids] = loq, hiq
    else:
        out_lo[ids], out_hi[ids] = hi * scale, lo * scale
        out_loq[ids], out_hiq[ids] = hiq, loq
    return EdgeIntervals(out_lo, out_hi, out_loq, out_hiq, quantile)


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
