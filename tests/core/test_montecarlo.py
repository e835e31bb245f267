"""Tests for Monte-Carlo perturbation analysis."""

import numpy as np
import pytest

from repro.core import PerturbationSpec, build_graph, monte_carlo
from repro.noise import Constant, Exponential, MachineSignature
from repro.testing import oracle


@pytest.fixture(scope="module")
def ring_build(ring_trace):
    return build_graph(ring_trace)


def spec(seed=0, scale=1.0, mean=100.0):
    return PerturbationSpec(
        MachineSignature(os_noise=Exponential(mean), latency=Exponential(40.0)),
        seed=seed,
        scale=scale,
    )


class TestDistribution:
    def test_shapes(self, ring_build):
        dist = monte_carlo(ring_build, spec(), replicates=20)
        assert dist.replicates == 20
        assert dist.nprocs == ring_build.graph.nprocs
        assert dist.makespan_samples.shape == (20,)
        assert dist.rank_mean().shape == (ring_build.graph.nprocs,)

    def test_replicates_vary(self, ring_build):
        dist = monte_carlo(ring_build, spec(), replicates=10)
        assert len(np.unique(dist.makespan_samples)) > 1

    def test_first_replicate_matches_single_propagation(self, ring_build):
        s = spec(seed=42)
        dist = monte_carlo(ring_build, s, replicates=3)
        single = oracle.propagate(ring_build, s)
        assert dist.samples[0].tolist() == pytest.approx(single.final_delay)

    def test_deterministic(self, ring_build):
        a = monte_carlo(ring_build, spec(seed=5), replicates=8)
        b = monte_carlo(ring_build, spec(seed=5), replicates=8)
        assert np.array_equal(a.samples, b.samples)
        assert a.seeds == b.seeds

    def test_constant_noise_degenerate(self, ring_build):
        const = PerturbationSpec(MachineSignature(os_noise=Constant(100.0)), seed=0)
        dist = monte_carlo(ring_build, const, replicates=5)
        assert dist.std() == pytest.approx(0.0)
        assert dist.quantile(0.05) == dist.quantile(0.95)

    def test_quantiles_ordered(self, ring_build):
        dist = monte_carlo(ring_build, spec(), replicates=40)
        q = dist.quantile([0.05, 0.5, 0.95])
        assert q[0] <= q[1] <= q[2]
        assert dist.mean() > 0

    def test_exceedance(self, ring_build):
        dist = monte_carlo(ring_build, spec(), replicates=40)
        assert dist.exceedance_probability(0.0) == 1.0
        assert dist.exceedance_probability(float("inf")) == 0.0
        mid = float(dist.quantile(0.5))
        assert 0.2 <= dist.exceedance_probability(mid) <= 0.8

    def test_mean_converges_to_expected_scale(self, ring_build):
        """MC mean tracks the per-seed variation around the same model."""
        small = monte_carlo(ring_build, spec(mean=50.0), replicates=30)
        large = monte_carlo(ring_build, spec(mean=200.0), replicates=30)
        assert large.mean() > 2 * small.mean()

    def test_summary_renders(self, ring_build):
        text = monte_carlo(ring_build, spec(), replicates=5).summary()
        assert "p5/p50/p95" in text

    def test_validation(self, ring_build):
        with pytest.raises(ValueError):
            monte_carlo(ring_build, spec(), replicates=0)
