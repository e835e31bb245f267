"""Unit tests for the parametric perturbation distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TruncatedNormal,
    Uniform,
)

N = 20_000


def _stats_close(dist, rng, rel=0.08):
    samples = dist.sample_n(rng, N)
    assert samples.shape == (N,)
    assert np.mean(samples) == pytest.approx(dist.mean(), rel=rel, abs=1e-9)
    if math.isfinite(dist.var()):
        assert np.var(samples) == pytest.approx(dist.var(), rel=max(rel * 3, 0.2), abs=1e-9)


class TestConstant:
    def test_always_value(self, rng):
        c = Constant(42.5)
        assert c.sample(rng) == 42.5
        assert np.all(c.sample_n(rng, 10) == 42.5)
        assert c.mean() == 42.5
        assert c.var() == 0.0

    def test_zero_singleton(self, rng):
        assert ZERO.sample(rng) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Constant(float("nan"))
        with pytest.raises(ValueError):
            Constant(float("inf"))

    def test_satisfies_protocol(self):
        assert isinstance(Constant(1.0), RandomVariable)


class TestUniform:
    def test_moments(self, rng):
        _stats_close(Uniform(10.0, 50.0), rng)

    def test_bounds(self, rng):
        s = Uniform(2.0, 3.0).sample_n(rng, 1000)
        assert np.all((s >= 2.0) & (s <= 3.0))

    def test_degenerate(self, rng):
        assert Uniform(5.0, 5.0).sample(rng) == 5.0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 2.0)


class TestExponential:
    def test_moments(self, rng):
        _stats_close(Exponential(120.0), rng)

    def test_nonnegative(self, rng):
        assert np.all(Exponential(10.0).sample_n(rng, 1000) >= 0.0)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Exponential(-1.0)


class TestNormal:
    def test_moments(self, rng):
        _stats_close(Normal(100.0, 15.0), rng)

    def test_zero_sigma(self, rng):
        assert Normal(5.0, 0.0).sample(rng) == 5.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)


class TestTruncatedNormal:
    def test_lower_bound_respected(self, rng):
        t = TruncatedNormal(mu=0.0, sigma=50.0, lower=0.0)
        s = t.sample_n(rng, 5000)
        assert np.all(s >= 0.0)

    def test_moments(self, rng):
        _stats_close(TruncatedNormal(mu=10.0, sigma=30.0, lower=0.0), rng)

    def test_untruncated_limit(self, rng):
        # Lower bound far below the mass: behaves like a plain normal.
        t = TruncatedNormal(mu=100.0, sigma=5.0, lower=-1000.0)
        assert t.mean() == pytest.approx(100.0, rel=1e-6)
        assert t.var() == pytest.approx(25.0, rel=1e-4)

    def test_equals_scipy_stats_formulas(self):
        """scipy.special's ndtr/ndtri and the local density give exactly
        the floats the scipy.stats.norm formulas give."""
        from scipy.stats import norm

        params = np.random.default_rng(31)
        for i in range(300):
            mu, sigma = params.normal(0.0, 100.0), params.uniform(0.01, 100.0)
            t = TruncatedNormal(mu, sigma, lower=mu + params.uniform(-6.0, 6.0) * sigma)
            a = (t.lower - mu) / sigma
            lam = norm.pdf(a) / max(1.0 - norm.cdf(a), 1e-300)
            assert t.mean() == mu + sigma * lam
            assert t.var() == sigma**2 * (1.0 - lam * (lam - a))
            draws = np.random.default_rng(i).uniform(norm.cdf(a), 1.0, size=16)
            expect = mu + sigma * norm.ppf(draws)
            assert np.array_equal(t.sample_n(np.random.default_rng(i), 16), expect)


class TestLogNormal:
    def test_moments(self, rng):
        _stats_close(LogNormal(3.0, 0.5), rng)

    def test_positive(self, rng):
        assert np.all(LogNormal(0.0, 1.0).sample_n(rng, 1000) > 0.0)


class TestGamma:
    def test_moments(self, rng):
        _stats_close(Gamma(shape=4.0, scale=25.0), rng)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            Gamma(1.0, 0.0)


class TestPareto:
    def test_minimum_respected(self, rng):
        s = Pareto(alpha=3.0, minimum=100.0).sample_n(rng, 2000)
        assert np.all(s >= 100.0)

    def test_moments_finite_alpha(self, rng):
        _stats_close(Pareto(alpha=5.0, minimum=10.0), rng, rel=0.1)

    def test_infinite_moments(self):
        assert Pareto(alpha=0.9, minimum=1.0).mean() == math.inf
        assert Pareto(alpha=1.5, minimum=1.0).var() == math.inf
        assert math.isfinite(Pareto(alpha=2.5, minimum=1.0).var())


class TestBernoulliSpike:
    def test_mostly_zero(self, rng):
        b = BernoulliSpike(p=0.1, spike=Constant(1000.0))
        s = b.sample_n(rng, 10_000)
        frac = np.mean(s > 0)
        assert frac == pytest.approx(0.1, abs=0.02)
        assert np.all(np.isin(s, [0.0, 1000.0]))

    def test_moments(self, rng):
        _stats_close(BernoulliSpike(p=0.3, spike=Exponential(200.0)), rng)

    def test_p_zero_and_one(self, rng):
        assert BernoulliSpike(0.0, Constant(5.0)).sample(rng) == 0.0
        assert BernoulliSpike(1.0, Constant(5.0)).sample(rng) == 5.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            BernoulliSpike(1.5, Constant(1.0))


class TestMixture:
    def test_moments(self, rng):
        m = Mixture([Constant(10.0), Constant(30.0)], [1.0, 3.0])
        assert m.mean() == pytest.approx(25.0)
        _stats_close(m, rng)

    def test_weights_normalized(self):
        m = Mixture([Constant(1.0), Constant(2.0)], [2.0, 2.0])
        assert m.weights == (0.5, 0.5)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            Mixture([], [])
        with pytest.raises(ValueError):
            Mixture([Constant(1.0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            Mixture([Constant(1.0)], [-1.0])


class TestCombinators:
    def test_shifted(self, rng):
        s = Exponential(50.0).shifted(100.0)
        assert s.mean() == pytest.approx(150.0)
        assert s.var() == pytest.approx(2500.0)
        assert np.all(s.sample_n(rng, 1000) >= 100.0)

    def test_scaled(self, rng):
        s = Exponential(50.0).scaled(3.0)
        assert s.mean() == pytest.approx(150.0)
        assert s.var() == pytest.approx(2500.0 * 9)
        _stats_close(s, rng)

    def test_nested(self, rng):
        s = Constant(10.0).scaled(2.0).shifted(5.0)
        assert s.sample(rng) == 25.0


@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    factor=st.floats(min_value=-100, max_value=100, allow_nan=False),
    offset=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_affine_combinators_property(value, factor, offset):
    """scaled/shifted of a constant is exact affine arithmetic."""
    rng = np.random.default_rng(0)
    dist = Constant(value).scaled(factor).shifted(offset)
    assert dist.sample(rng) == pytest.approx(value * factor + offset, rel=1e-12, abs=1e-9)
    assert dist.mean() == pytest.approx(value * factor + offset, rel=1e-12, abs=1e-9)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sampling_deterministic_in_seed(seed):
    """Identical generators yield identical draws for every family."""
    dists = [
        Exponential(10.0),
        Normal(0.0, 1.0),
        LogNormal(1.0, 0.3),
        Gamma(2.0, 3.0),
        Pareto(2.5, 1.0),
        Uniform(0.0, 5.0),
        BernoulliSpike(0.5, Exponential(4.0)),
    ]
    for d in dists:
        a = d.sample_n(np.random.default_rng(seed), 8)
        b = d.sample_n(np.random.default_rng(seed), 8)
        assert np.array_equal(a, b)


class TestWeibull:
    def test_moments(self, rng):
        from repro.noise.distributions import Weibull

        _stats_close(Weibull(shape=1.5, scale=100.0), rng)

    def test_shape_one_is_exponential(self, rng):
        from repro.noise.distributions import Weibull

        w = Weibull(shape=1.0, scale=50.0)
        assert w.mean() == pytest.approx(50.0)
        assert w.var() == pytest.approx(2500.0)

    def test_positive_support(self, rng):
        from repro.noise.distributions import Weibull

        assert np.all(Weibull(0.7, 10.0).sample_n(rng, 1000) >= 0.0)

    def test_rejects_bad_params(self):
        from repro.noise.distributions import Weibull

        with pytest.raises(ValueError):
            Weibull(0.0, 1.0)
        with pytest.raises(ValueError):
            Weibull(1.0, -2.0)
