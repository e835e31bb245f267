"""Symbolic support intervals for perturbation distributions.

The interval abstract interpretation (see :mod:`repro.verify.bounds`)
needs, for every primitive random variable a :class:`~repro.core.
perturb.PerturbationSpec` can draw from, a guaranteed ``[lo, hi]``
enclosure of its support.  Bounded families (Constant, Uniform,
Empirical, ...) have exact supports.  Unbounded families (Exponential,
Normal, ...) do not — for those we adopt an explicit *finite-support
policy*: the interval encloses all mass up to a per-draw quantile ``q``
(default ``1 - 1e-12``) and the affected side is flagged
``quantile-bounded``, making the derived makespan bound "sound up to q"
rather than absolute.  The flag is propagated through every interval
combinator so a report can state exactly which certificates are
conditional.

Quantile formulas mirror the *samplers* in
:mod:`repro.noise.distributions`, not just the textbook family — e.g.
:class:`~repro.noise.distributions.TruncatedNormal` draws by inverse
CDF restricted to the surviving tail mass, so its quantile-bounded hi
is ``ppf(cdf(alpha) + q * (1 - cdf(alpha)))``.  The Normal-family and
Gamma quantiles come from :mod:`scipy.special` (``ndtri``, ``ndtr``,
``gammaincinv``), the same functions :mod:`scipy.stats` evaluates for
them, so the bounds are the same floats without importing
:mod:`scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.noise.distributions import (
    BernoulliSpike,
    Constant,
    Exponential,
    Gamma,
    LogNormal,
    Mixture,
    Normal,
    Pareto,
    RandomVariable,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform,
    Weibull,
)
from repro.noise.empirical import Empirical

__all__ = ["DEFAULT_QUANTILE", "Interval", "support_interval"]

#: Per-draw tail quantile used to bound unbounded families.  At
#: ``1 - 1e-12`` a million-draw replicate exceeds some per-draw bound
#: with probability < 1e-6 — and the certificate says so explicitly.
DEFAULT_QUANTILE = 1.0 - 1e-12


@dataclass(frozen=True)
class Interval:
    """A support enclosure ``[lo, hi]`` with per-side soundness flags.

    ``lo_q``/``hi_q`` record that the corresponding endpoint is
    quantile-bounded (covers mass up to ``q``) rather than an absolute
    support bound.  Flags ride along per *side* because negation
    (``Scaled`` with a negative factor, negative spec scales) swaps
    which side the truncated tail lands on.
    """

    lo: float
    hi: float
    lo_q: bool = False
    hi_q: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def quantile_bounded(self) -> bool:
        return self.lo_q or self.hi_q

    def shift(self, offset: float) -> "Interval":
        return Interval(self.lo + offset, self.hi + offset, self.lo_q, self.hi_q)

    def scale(self, factor: float) -> "Interval":
        """Multiply by a constant; a negative factor flips the interval
        and the per-side flags with it."""
        if factor >= 0:
            return Interval(self.lo * factor, self.hi * factor, self.lo_q, self.hi_q)
        return Interval(self.hi * factor, self.lo * factor, self.hi_q, self.lo_q)

    def clamp_min(self, floor: float = 0.0) -> "Interval":
        """Enclosure of ``max(X, floor)`` (the signature samplers clamp
        every draw at zero).  A clamped endpoint is exact."""
        lo, lo_q = (floor, False) if self.lo < floor else (self.lo, self.lo_q)
        hi, hi_q = (floor, False) if self.hi < floor else (self.hi, self.hi_q)
        return Interval(lo, hi, lo_q, hi_q)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (mixture components)."""
        if self.lo < other.lo:
            lo, lo_q = self.lo, self.lo_q
        elif other.lo < self.lo:
            lo, lo_q = other.lo, other.lo_q
        else:
            lo, lo_q = self.lo, self.lo_q and other.lo_q
        if self.hi > other.hi:
            hi, hi_q = self.hi, self.hi_q
        elif other.hi > self.hi:
            hi, hi_q = other.hi, other.hi_q
        else:
            hi, hi_q = self.hi, self.hi_q and other.hi_q
        return Interval(lo, hi, lo_q, hi_q)


def _check_q(q: float) -> None:
    if not 0.5 <= q < 1.0:
        raise ValueError(f"quantile must be in [0.5, 1), got {q}")


def support_interval(dist: RandomVariable, q: float = DEFAULT_QUANTILE) -> Interval:
    """Guaranteed (or quantile-bounded) support enclosure of one draw.

    Raises :class:`TypeError` for families this analysis does not know —
    a sound verifier must refuse rather than guess.
    """
    _check_q(q)
    if isinstance(dist, Constant):
        return Interval(dist.value, dist.value)
    if isinstance(dist, Uniform):
        return Interval(dist.low, dist.high)
    if isinstance(dist, Empirical):
        values = [float(s) for s in dist.samples]
        return Interval(min(values), max(values))
    if isinstance(dist, Exponential):
        # ppf(q) = -mean * log(1 - q)
        return Interval(0.0, -dist.mean_value * math.log1p(-q), hi_q=True)
    if isinstance(dist, Normal):
        if dist.sigma == 0.0:
            return Interval(dist.mu, dist.mu)
        from scipy.special import ndtri

        z = float(ndtri(q))
        return Interval(dist.mu - dist.sigma * z, dist.mu + dist.sigma * z, lo_q=True, hi_q=True)
    if isinstance(dist, TruncatedNormal):
        from scipy.special import ndtr, ndtri

        a = (dist.lower - dist.mu) / dist.sigma
        lo_mass = float(ndtr(a))
        # Sampler: u ~ Uniform(cdf(a), 1); x = mu + sigma * ppf(u).
        hi = dist.mu + dist.sigma * float(ndtri(lo_mass + q * (1.0 - lo_mass)))
        return Interval(dist.lower, hi, hi_q=True)
    if isinstance(dist, LogNormal):
        if dist.sigma == 0.0:
            v = math.exp(dist.mu)
            return Interval(v, v)
        from scipy.special import ndtri

        return Interval(0.0, math.exp(dist.mu + dist.sigma * float(ndtri(q))), hi_q=True)
    if isinstance(dist, Gamma):
        from scipy.special import gammaincinv

        return Interval(0.0, float(gammaincinv(dist.shape, q)) * dist.scale, hi_q=True)
    if isinstance(dist, Weibull):
        # ppf(q) = scale * (-log(1 - q)) ** (1/shape)
        return Interval(0.0, dist.scale * (-math.log1p(-q)) ** (1.0 / dist.shape), hi_q=True)
    if isinstance(dist, Pareto):
        # Sampler: minimum * (1 + pareto(alpha)); ppf(q) = minimum * (1-q)^(-1/alpha)
        return Interval(dist.minimum, dist.minimum * (1.0 - q) ** (-1.0 / dist.alpha), hi_q=True)
    if isinstance(dist, BernoulliSpike):
        if dist.p == 0.0:
            return Interval(0.0, 0.0)
        spike = support_interval(dist.spike, q)
        if dist.p == 1.0:
            return spike
        return spike.hull(Interval(0.0, 0.0))
    if isinstance(dist, Mixture):
        out: Interval | None = None
        for comp in dist.components:
            iv = support_interval(comp, q)
            out = iv if out is None else out.hull(iv)
        assert out is not None  # Mixture guarantees non-empty components
        return out
    if isinstance(dist, Shifted):
        return support_interval(dist.base, q).shift(dist.offset)
    if isinstance(dist, Scaled):
        return support_interval(dist.base, q).scale(dist.factor)
    raise TypeError(
        f"no support interval known for distribution family "
        f"{type(dist).__name__}; static bounds would be unsound"
    )
