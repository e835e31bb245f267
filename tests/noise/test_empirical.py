"""Unit and property tests for empirical distributions (§5, method 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise.distributions import Exponential, Scaled, Shifted
from repro.noise.empirical import Empirical, ecdf


class TestECDF:
    def test_simple(self):
        xs, F = ecdf([1.0, 2.0, 2.0, 3.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(F) == [0.25, 0.75, 1.0]

    def test_single_sample(self):
        xs, F = ecdf([5.0])
        assert list(xs) == [5.0]
        assert list(F) == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])


class TestEmpirical:
    def test_samples_sorted_and_stored(self):
        e = Empirical([3.0, 1.0, 2.0])
        assert e.samples == (1.0, 2.0, 3.0)
        assert e.min() == 1.0
        assert e.max() == 3.0
        assert e.size() == 3
        assert len(e) == 3

    def test_moments(self):
        e = Empirical([0.0, 10.0])
        assert e.mean() == 5.0
        assert e.var() == 25.0

    def test_bootstrap_draws_only_observed(self, rng):
        e = Empirical([1.0, 5.0, 9.0])
        s = e.sample_n(rng, 500)
        assert set(np.unique(s)) <= {1.0, 5.0, 9.0}

    def test_interpolated_draws_between(self, rng):
        e = Empirical([0.0, 100.0], interpolate=True)
        s = e.sample_n(rng, 500)
        assert np.all((s >= 0.0) & (s <= 100.0))
        assert np.any((s > 1.0) & (s < 99.0))

    def test_cdf_right_continuous(self):
        e = Empirical([1.0, 2.0, 3.0, 4.0])
        assert float(e.cdf(0.5)) == 0.0
        assert float(e.cdf(1.0)) == 0.25
        assert float(e.cdf(2.5)) == 0.5
        assert float(e.cdf(4.0)) == 1.0

    def test_quantiles(self):
        e = Empirical(list(range(101)))
        assert float(e.quantile(0.0)) == 0.0
        assert float(e.quantile(0.5)) == 50.0
        assert float(e.quantile(1.0)) == 100.0

    def test_truncated(self):
        e = Empirical([1.0, 2.0, 3.0, 4.0, 5.0])
        t = e.truncated(lower=2.0, upper=4.0)
        assert t.samples == (2.0, 3.0, 4.0)
        with pytest.raises(ValueError):
            e.truncated(lower=100.0)

    def test_ks_distance_self_zero(self):
        e = Empirical([1.0, 2.0, 3.0])
        assert e.ks_distance(e) == 0.0

    def test_ks_distance_disjoint_one(self):
        a = Empirical([1.0, 2.0])
        b = Empirical([10.0, 20.0])
        assert a.ks_distance(b) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([1.0, float("nan")])
        with pytest.raises(ValueError):
            Empirical([[1.0, 2.0], [3.0, 4.0]])

    def test_combinators(self):
        e = Empirical([3.0, 1.0, 2.0])
        assert e.scaled(2.0) == Scaled(e, 2.0)
        assert e.shifted(-1.0) == Shifted(e, -1.0)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert e.scaled(2.0).sample(a) == 2.0 * e.sample(b)

    def test_cached_array_is_the_samples(self):
        import pickle

        e = Empirical([5.0, -1.0, 2.5], interpolate=True)
        assert e.array.tolist() == list(e.samples)
        assert e.array.dtype == np.float64 and not e.array.flags.writeable
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e and hash(clone) == hash(e)
        assert np.array_equal(clone.array, e.array)


class TestConvergence:
    def test_law_of_large_numbers(self, rng):
        """§5: the empirical distribution approaches the true one as the
        sample count grows (monitored via the KS distance to a large
        reference sample)."""
        source = Exponential(100.0)
        reference = Empirical(source.sample_n(rng, 50_000))
        distances = []
        for n in (50, 500, 5000):
            emp = Empirical(source.sample_n(rng, n))
            distances.append(emp.ks_distance(reference))
        assert distances[0] > distances[2]
        assert distances[2] < 0.05

    def test_resampling_preserves_distribution(self, rng):
        source = Empirical(Exponential(42.0).sample_n(rng, 4000))
        resampled = Empirical(source.sample_n(rng, 4000))
        assert source.ks_distance(resampled) < 0.05
        assert resampled.mean() == pytest.approx(source.mean(), rel=0.1)


@given(
    samples=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
@settings(max_examples=100, deadline=None)
def test_empirical_invariants(samples):
    """Sorted storage, CDF in [0,1] and monotone, mean within range."""
    e = Empirical(samples)
    assert list(e.samples) == sorted(samples)
    grid = np.linspace(min(samples) - 1, max(samples) + 1, 17)
    F = e.cdf(grid)
    assert np.all((F >= 0.0) & (F <= 1.0))
    assert np.all(np.diff(F) >= 0.0)
    assert e.min() - 1e-9 <= e.mean() <= e.max() + 1e-9
