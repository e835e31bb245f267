"""Random-variable primitives used to parameterize simulated perturbations.

Section 5 of the paper treats every perturbation parameter (operating
system noise, message latency, bandwidth) as a random variable whose
distribution is either an *assumed* parametric family with parameters
estimated from microbenchmark data, or an *empirical* distribution built
directly from the samples (see :mod:`repro.noise.empirical`).

Every distribution here implements the :class:`RandomVariable` protocol:

``sample(rng)``
    one draw (float) using the supplied generator;
``sample_n(rng, n)``
    vectorized draws as a ``numpy`` array;
``mean()`` / ``var()``
    analytic moments where defined.

All distributions are immutable and hash on their parameters so that
perturbation specs can be compared and stored in experiment histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro._util import check_nonnegative, check_positive

__all__ = [
    "RandomVariable",
    "Constant",
    "Uniform",
    "Exponential",
    "Normal",
    "TruncatedNormal",
    "LogNormal",
    "Gamma",
    "Pareto",
    "Weibull",
    "BernoulliSpike",
    "Mixture",
    "Shifted",
    "Scaled",
    "ZERO",
]


@runtime_checkable
class RandomVariable(Protocol):
    """Protocol all perturbation distributions satisfy."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw a single value."""

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values as a float array."""

    def mean(self) -> float:
        """Analytic (or estimated) expectation."""

    def var(self) -> float:
        """Analytic (or estimated) variance."""


class _Base:
    """Mixin providing ``sample`` in terms of ``sample_n``."""

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])

    # Convenience combinators -------------------------------------------------
    def shifted(self, offset: float) -> "Shifted":
        """This variable plus a constant offset."""
        return Shifted(self, offset)

    def scaled(self, factor: float) -> "Scaled":
        """This variable times a constant factor."""
        return Scaled(self, factor)


@dataclass(frozen=True)
class Constant(_Base):
    """Degenerate distribution: always ``value``.

    Scalar-constant perturbations are what Dimemas-style tools use; the
    paper's framework generalizes them, but constants remain the easiest
    way to reproduce the deterministic token-ring experiment of §6.1.
    """

    value: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"Constant value must be finite, got {self.value!r}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)

    def mean(self) -> float:
        return self.value

    def var(self) -> float:
        return 0.0


ZERO = Constant(0.0)


@dataclass(frozen=True)
class Uniform(_Base):
    """Uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("Uniform bounds must be finite")
        if self.high < self.low:
            raise ValueError(f"Uniform requires low <= high, got [{self.low}, {self.high}]")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def var(self) -> float:
        return (self.high - self.low) ** 2 / 12.0


@dataclass(frozen=True)
class Exponential(_Base):
    """Exponential with expectation ``mean_value``.

    The paper notes queueing time is conventionally modeled as
    exponential (§5), so this is the default family for OS-noise fits.
    """

    mean_value: float

    def __post_init__(self) -> None:
        check_positive("Exponential mean", self.mean_value)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size=n)

    def mean(self) -> float:
        return self.mean_value

    def var(self) -> float:
        return self.mean_value**2


@dataclass(frozen=True)
class Normal(_Base):
    """Gaussian with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        check_nonnegative("Normal sigma", self.sigma)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return self.mu

    def var(self) -> float:
        return self.sigma**2


@dataclass(frozen=True)
class TruncatedNormal(_Base):
    """Gaussian truncated below at ``lower`` (resampled, not clipped).

    Perturbation deltas attached to edges must usually be nonnegative;
    a truncated normal keeps the bell shape without producing negative
    latencies.  Moments are computed from the standard truncated-normal
    formulas.
    """

    mu: float
    sigma: float
    lower: float = 0.0

    def __post_init__(self) -> None:
        check_positive("TruncatedNormal sigma", self.sigma)

    def _alpha(self) -> float:
        return (self.lower - self.mu) / self.sigma

    # The standard normal's cdf, quantile and density are the functions
    # ``scipy.stats.norm`` evaluates (same floats), without its import.

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse-CDF sampling restricted to the surviving tail mass.
        from scipy.special import ndtr, ndtri

        lo = ndtr(self._alpha())
        u = rng.uniform(lo, 1.0, size=n)
        return self.mu + self.sigma * ndtri(u)

    def _tail(self) -> tuple[float, float]:
        """``(alpha, lambda)``: the standardized bound and the inverse
        Mills ratio ``pdf(alpha) / (1 - cdf(alpha))``."""
        from scipy.special import ndtr

        a = self._alpha()
        return a, _norm_pdf(a) / max(1.0 - ndtr(a), 1e-300)

    def mean(self) -> float:
        _, lam = self._tail()
        return self.mu + self.sigma * lam

    def var(self) -> float:
        a, lam = self._tail()
        delta = lam * (lam - a)
        return self.sigma**2 * (1.0 - delta)


_NORM_PDF_C = np.sqrt(2 * np.pi)


def _norm_pdf(x: float) -> float:
    """The standard normal density, as ``scipy.stats.norm.pdf`` computes it."""
    return np.exp(-np.square(x) / 2.0) / _NORM_PDF_C


@dataclass(frozen=True)
class LogNormal(_Base):
    """Log-normal parameterized by the underlying normal's ``mu, sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        check_nonnegative("LogNormal sigma", self.sigma)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def var(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)


@dataclass(frozen=True)
class Gamma(_Base):
    """Gamma with ``shape`` k and ``scale`` θ (mean kθ)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        check_positive("Gamma shape", self.shape)
        check_positive("Gamma scale", self.scale)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=n)

    def mean(self) -> float:
        return self.shape * self.scale

    def var(self) -> float:
        return self.shape * self.scale**2


@dataclass(frozen=True)
class Weibull(_Base):
    """Weibull with ``shape`` k and ``scale`` λ.

    The classic latency-tail family: k < 1 gives heavier-than-exponential
    tails (stragglers), k > 1 lighter ones (jitter concentrating around
    the scale).
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        check_positive("Weibull shape", self.shape)
        check_positive("Weibull scale", self.scale)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def var(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)


@dataclass(frozen=True)
class Pareto(_Base):
    """Pareto (Lomax form shifted to start at ``minimum``).

    Heavy-tailed OS-noise events — periodic daemons that occasionally
    run long — are better captured by a Pareto tail than an exponential
    (cf. the FTQ analyses in Sottile & Minnich 2004).
    """

    alpha: float
    minimum: float

    def __post_init__(self) -> None:
        check_positive("Pareto alpha", self.alpha)
        check_positive("Pareto minimum", self.minimum)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.minimum * (1.0 + rng.pareto(self.alpha, size=n))

    def mean(self) -> float:
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.minimum / (self.alpha - 1.0)

    def var(self) -> float:
        if self.alpha <= 2.0:
            return math.inf
        a, m = self.alpha, self.minimum
        return m**2 * a / ((a - 1.0) ** 2 * (a - 2.0))


@dataclass(frozen=True)
class BernoulliSpike(_Base):
    """With probability ``p`` draw from ``spike``, else 0.

    Models intermittent preemption: most intervals see no noise, a few
    see a large delay (the signature shape of daemon interference).
    """

    p: float
    spike: "RandomVariable"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"BernoulliSpike p must be in [0, 1], got {self.p}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        hits = rng.random(n) < self.p
        out = np.zeros(n, dtype=float)
        k = int(hits.sum())
        if k:
            out[hits] = self.spike.sample_n(rng, k)
        return out

    def mean(self) -> float:
        return self.p * self.spike.mean()

    def var(self) -> float:
        m, v = self.spike.mean(), self.spike.var()
        return self.p * (v + m**2) - (self.p * m) ** 2


@dataclass(frozen=True)
class Mixture(_Base):
    """Finite mixture of component distributions with given weights."""

    components: tuple
    weights: tuple

    def __init__(self, components: Sequence[RandomVariable], weights: Sequence[float]):
        if len(components) != len(weights) or not components:
            raise ValueError("Mixture needs equal-length, non-empty components/weights")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("Mixture weights must be nonnegative and sum > 0")
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "weights", tuple((w / w.sum()).tolist()))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.components), size=n, p=np.asarray(self.weights))
        out = np.empty(n, dtype=float)
        for i, comp in enumerate(self.components):
            mask = idx == i
            k = int(mask.sum())
            if k:
                out[mask] = comp.sample_n(rng, k)
        return out

    def mean(self) -> float:
        return float(sum(w * c.mean() for w, c in zip(self.weights, self.components)))

    def var(self) -> float:
        m = self.mean()
        second = sum(w * (c.var() + c.mean() ** 2) for w, c in zip(self.weights, self.components))
        return float(second - m**2)


@dataclass(frozen=True)
class Shifted(_Base):
    """``base + offset``."""

    base: "RandomVariable"
    offset: float

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.base.sample_n(rng, n) + self.offset

    def mean(self) -> float:
        return self.base.mean() + self.offset

    def var(self) -> float:
        return self.base.var()


@dataclass(frozen=True)
class Scaled(_Base):
    """``factor * base``."""

    base: "RandomVariable"
    factor: float

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.base.sample_n(rng, n) * self.factor

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def var(self) -> float:
        return self.base.var() * self.factor**2
