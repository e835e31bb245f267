"""Empirical distributions built from microbenchmark samples.

The second parameterization method of §5: instead of fitting an assumed
family, keep the measured samples and draw from the empirical
distribution.  By the law of large numbers the empirical distribution
converges to the true one as the sample count grows, which is exactly
the property the property-based tests verify.

Sampling is implemented two ways:

* :class:`Empirical` — classical bootstrap resampling (draw measured
  values with replacement).  Exact match to the sample's ECDF.
* :class:`Empirical` with ``interpolate=True`` — inverse-CDF sampling
  with linear interpolation between order statistics, which smooths the
  staircase and can produce values between observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.noise.distributions import _Base

__all__ = ["Empirical", "ecdf"]


def ecdf(samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, F(xs))`` — the empirical CDF evaluated at the sorted
    unique sample points.

    ``F(x)`` is the right-continuous step function
    ``#(samples <= x) / n``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("ecdf requires at least one sample")
    xs, counts = np.unique(arr, return_counts=True)
    return xs, np.cumsum(counts) / arr.size


@dataclass(frozen=True)
class Empirical(_Base):
    """Empirical distribution over a fixed set of measured samples.

    Implements the :class:`repro.noise.distributions.RandomVariable`
    protocol so an empirical distribution can be attached anywhere a
    parametric one can (the whole point of §5's second method), and
    has the same ``shifted``/``scaled`` combinators.  ``samples`` (the
    sorted tuple) is the value: it drives equality, hashing and
    serialization.  Sampling and the statistics read :attr:`array`, the
    same values as a read-only float64 array built once.
    """

    samples: tuple
    interpolate: bool = False

    def __init__(self, samples: Sequence[float], interpolate: bool = False):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("Empirical requires a non-empty 1-D sample array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Empirical samples must be finite")
        arr = np.sort(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", tuple(arr.tolist()))
        object.__setattr__(self, "interpolate", bool(interpolate))
        object.__setattr__(self, "_array", arr)

    def __reduce__(self):
        return (Empirical, (self.samples, self.interpolate))

    @property
    def array(self) -> np.ndarray:
        """The sorted samples as a read-only float64 array."""
        return self._array

    # -- RandomVariable protocol ------------------------------------------------
    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        arr = self._array
        if not self.interpolate or arr.size == 1:
            idx = rng.integers(0, arr.size, size=n)
            return arr[idx]
        u = rng.uniform(0.0, 1.0, size=n)
        return self.quantile(u)

    def mean(self) -> float:
        return float(np.mean(self._array))

    def var(self) -> float:
        return float(np.var(self._array))

    # -- Descriptive statistics ---------------------------------------------------
    def quantile(self, q) -> np.ndarray:
        """Linear-interpolated quantile(s) of the sample."""
        return np.quantile(self._array, q)

    def cdf(self, x) -> np.ndarray:
        """Right-continuous ECDF evaluated at ``x`` (scalar or array)."""
        arr = self._array
        return np.searchsorted(arr, np.asarray(x, dtype=float), side="right") / arr.size

    def min(self) -> float:
        return self.samples[0]

    def max(self) -> float:
        return self.samples[-1]

    def size(self) -> int:
        return len(self.samples)

    def ks_distance(self, other: "Empirical") -> float:
        """Two-sample Kolmogorov–Smirnov statistic against ``other``.

        Used by the fitting tests to check that sampling from an
        empirical distribution converges back to its source.
        """
        grid = np.union1d(self._array, other.array)
        return float(np.max(np.abs(self.cdf(grid) - other.cdf(grid))))

    def truncated(self, lower: float | None = None, upper: float | None = None) -> "Empirical":
        """New empirical distribution keeping samples in ``[lower, upper]``."""
        arr = self._array
        mask = np.ones(arr.size, dtype=bool)
        if lower is not None:
            mask &= arr >= lower
        if upper is not None:
            mask &= arr <= upper
        kept = arr[mask]
        if kept.size == 0:
            raise ValueError("truncation removed every sample")
        return Empirical(kept, interpolate=self.interpolate)

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.samples)
