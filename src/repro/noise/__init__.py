"""Perturbation parameterization (§5 of the paper).

Distributions (parametric and empirical), fitting from microbenchmark
samples, synthetic OS-noise generators, and the machine-signature bundle
the analyzer consumes.

Fitting (:mod:`repro.noise.fitting`) needs ``scipy.stats``; it runs once
per machine, while the analyzer only consumes the fitted signature.  So
``FitResult`` and ``fit_best`` load on first access, and importing this
package for analysis never loads scipy.
"""

from typing import TYPE_CHECKING

from repro.noise.distributions import (
    ZERO,
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
from repro.noise.empirical import Empirical, ecdf
from repro.noise.models import (
    NO_NOISE,
    CompositeNoise,
    DistributionNoise,
    NoiseModel,
    NoNoise,
    PeriodicDaemon,
    RandomPreemption,
)
from repro.noise.signature import MachineSignature

if TYPE_CHECKING:
    from repro.noise.fitting import FitResult, fit_best

__all__ = [
    "ZERO",
    "BernoulliSpike",
    "Constant",
    "Exponential",
    "Gamma",
    "LogNormal",
    "Mixture",
    "Normal",
    "Pareto",
    "RandomVariable",
    "Scaled",
    "Shifted",
    "TruncatedNormal",
    "Uniform",
    "Weibull",
    "Empirical",
    "ecdf",
    "FitResult",
    "fit_best",
    "NO_NOISE",
    "CompositeNoise",
    "DistributionNoise",
    "NoiseModel",
    "NoNoise",
    "PeriodicDaemon",
    "RandomPreemption",
    "MachineSignature",
]


def __getattr__(name: str):
    """Load the fitting names on first access (PEP 562)."""
    if name in ("FitResult", "fit_best"):
        from repro.noise import fitting

        return getattr(fitting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
