"""Support intervals: every distribution family's enclosure actually
encloses its draws, quantile flags land on the right side, and the
combinators (shift / scale / clamp / hull) preserve soundness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.noise import Constant, Empirical, Exponential, Normal, Uniform
from repro.noise.distributions import (
    BernoulliSpike,
    Gamma,
    LogNormal,
    Mixture,
    Pareto,
    Scaled,
    Shifted,
    TruncatedNormal,
    Weibull,
)
from repro.verify import DEFAULT_QUANTILE, Interval, support_interval

N_DRAWS = 2_000

BOUNDED = [
    Constant(42.0),
    Uniform(3.0, 9.0),
    Empirical([1.0, 5.0, 2.5]),
    BernoulliSpike(p=0.3, spike=Uniform(10.0, 20.0)),
    Mixture(components=(Uniform(0.0, 1.0), Constant(5.0)), weights=(0.5, 0.5)),
    Shifted(Uniform(0.0, 1.0), 100.0),
    Scaled(Uniform(1.0, 2.0), 3.0),
]

UNBOUNDED = [
    Exponential(80.0),
    Normal(50.0, 10.0),
    TruncatedNormal(50.0, 10.0, lower=0.0),
    LogNormal(2.0, 0.5),
    Gamma(2.0, 30.0),
    Weibull(1.5, 40.0),
    Pareto(3.0, 10.0),
]


def _dist_id(dist):
    return type(dist).__name__


@pytest.mark.parametrize("dist", BOUNDED + UNBOUNDED, ids=_dist_id)
def test_draws_fall_inside_interval(dist, rng):
    iv = support_interval(dist)
    draws = dist.sample_n(rng, N_DRAWS)
    assert iv.lo <= draws.min() + 1e-12
    assert draws.max() <= iv.hi + 1e-12


@pytest.mark.parametrize("dist", BOUNDED, ids=_dist_id)
def test_bounded_families_are_absolute(dist):
    iv = support_interval(dist)
    assert not iv.quantile_bounded


@pytest.mark.parametrize("dist", UNBOUNDED, ids=_dist_id)
def test_unbounded_families_are_flagged(dist):
    iv = support_interval(dist)
    assert iv.hi_q  # the upper tail is always the cut side
    assert math.isfinite(iv.hi)


def test_exponential_quantile_formula():
    iv = support_interval(Exponential(100.0), q=0.99)
    assert iv.lo == 0.0 and not iv.lo_q
    assert iv.hi == pytest.approx(-100.0 * math.log(0.01))


def test_normal_is_two_sided():
    iv = support_interval(Normal(0.0, 1.0), q=0.999)
    assert iv.lo_q and iv.hi_q
    assert iv.lo == pytest.approx(-iv.hi)


def _scipy_stats_interval(dist, q):
    """The bounds as :mod:`scipy.stats` computes them."""
    from scipy.stats import gamma, norm

    if isinstance(dist, Normal):
        z = float(norm.ppf(q))
        return Interval(dist.mu - dist.sigma * z, dist.mu + dist.sigma * z, lo_q=True, hi_q=True)
    if isinstance(dist, TruncatedNormal):
        lo_mass = float(norm.cdf((dist.lower - dist.mu) / dist.sigma))
        z = float(norm.ppf(lo_mass + q * (1.0 - lo_mass)))
        return Interval(dist.lower, dist.mu + dist.sigma * z, hi_q=True)
    if isinstance(dist, LogNormal):
        return Interval(0.0, math.exp(dist.mu + dist.sigma * float(norm.ppf(q))), hi_q=True)
    return Interval(0.0, float(gamma.ppf(q, dist.shape, scale=dist.scale)), hi_q=True)


@pytest.mark.parametrize("family", ["normal", "truncnormal", "lognormal", "gamma"])
def test_special_function_quantiles_equal_scipy_stats(family):
    """The bounds use scipy.special, not scipy.stats, and are the very
    same floats, over random parameters and quantiles."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        loc, spread = rng.uniform(-50.0, 200.0), rng.uniform(0.01, 40.0)
        lower = loc + rng.uniform(-3.0, 3.0) * spread
        dist = {
            "normal": Normal(loc, spread),
            "truncnormal": TruncatedNormal(loc, spread, lower=lower),
            "lognormal": LogNormal(loc / 50.0, spread / 20.0),
            "gamma": Gamma(spread / 4.0, abs(loc) + 0.1),
        }[family]
        for q in (DEFAULT_QUANTILE, rng.uniform(0.5, 1.0), 1.0 - 10.0 ** -rng.uniform(1, 15)):
            assert support_interval(dist, q) == _scipy_stats_interval(dist, q), (dist, q)


def test_degenerate_normal_is_exact():
    iv = support_interval(Normal(7.0, 0.0))
    assert iv == Interval(7.0, 7.0)


def test_tighter_quantile_narrows_the_cut():
    loose = support_interval(Exponential(50.0), q=0.9)
    tight = support_interval(Exponential(50.0), q=0.999)
    assert loose.hi < tight.hi


def test_bad_quantile_rejected():
    with pytest.raises(ValueError):
        support_interval(Exponential(1.0), q=0.2)
    with pytest.raises(ValueError):
        support_interval(Exponential(1.0), q=1.0)


def test_unknown_family_refused():
    class Mystery:
        def sample(self, rng):
            return 0.0

    with pytest.raises(TypeError, match="no support interval"):
        support_interval(Mystery())


class TestCombinators:
    def test_shift(self):
        iv = Interval(1.0, 2.0, hi_q=True).shift(10.0)
        assert iv == Interval(11.0, 12.0, hi_q=True)

    def test_positive_scale_keeps_flags(self):
        iv = Interval(1.0, 2.0, hi_q=True).scale(3.0)
        assert iv == Interval(3.0, 6.0, hi_q=True)

    def test_negative_scale_flips_interval_and_flags(self):
        iv = Interval(1.0, 2.0, hi_q=True).scale(-1.0)
        assert iv == Interval(-2.0, -1.0, lo_q=True, hi_q=False)

    def test_clamp_min_makes_clamped_side_exact(self):
        iv = Interval(-5.0, 3.0, lo_q=True, hi_q=True).clamp_min(0.0)
        assert iv == Interval(0.0, 3.0, lo_q=False, hi_q=True)

    def test_clamp_min_can_collapse(self):
        assert Interval(-5.0, -1.0).clamp_min(0.0) == Interval(0.0, 0.0)

    def test_hull_takes_widest_flags(self):
        a = Interval(0.0, 5.0, hi_q=True)
        b = Interval(-1.0, 3.0)
        h = a.hull(b)
        assert h == Interval(-1.0, 5.0, lo_q=False, hi_q=True)

    def test_hull_ties_need_both_flags(self):
        a = Interval(0.0, 5.0, hi_q=True)
        b = Interval(0.0, 5.0, hi_q=False)
        assert not a.hull(b).hi_q
        assert a.hull(a).hi_q

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)


def test_default_quantile_is_near_one():
    assert 0.5 <= DEFAULT_QUANTILE < 1.0
    assert DEFAULT_QUANTILE > 1.0 - 1e-9
