"""Tests for the presampled sweep fast path: the compiled plan samples
one raw delta row and re-propagates it at every scale of a ladder."""

import numpy as np
import pytest

from repro.core import PerturbationSpec, build_graph, compiled_plan
from repro.noise import Constant, Exponential, MachineSignature
from repro.testing import oracle


@pytest.fixture(scope="module")
def build(ring_trace):
    return build_graph(ring_trace)


def spec(seed=3, scale=1.0, quantum=0.0):
    return PerturbationSpec(
        MachineSignature(
            os_noise=Exponential(80.0),
            latency=Exponential(40.0),
            per_byte=Constant(0.003),
            os_quantum=quantum,
        ),
        seed=seed,
        scale=scale,
    )


def sample_raw(build, s):
    return compiled_plan(build).sample_raw_batch(s.signature, [s.seed], 1.0)[0]


def presampled(build, s, scale, mode="additive"):
    return compiled_plan(build).propagate_presampled_batch(sample_raw(build, s), [scale], mode)


class TestEquivalence:
    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 4.0, -1.0])
    def test_matches_fresh_propagate(self, build, scale):
        s = spec()
        fast = presampled(build, s, scale)
        slow = oracle.propagate(build, s.scaled(scale))
        assert fast.delays[0].tolist() == slow.final_delay
        assert fast.clamped[0] == slow.clamped_edges

    def test_matches_in_threshold_mode(self, build):
        s = spec()
        fast = presampled(build, s, 2.0, mode="threshold")
        slow = oracle.propagate(build, s.scaled(2.0), mode="threshold")
        assert fast.delays[0].tolist() == slow.final_delay

    def test_matches_with_interval_scaling(self, build):
        s = spec(quantum=2000.0)
        fast = presampled(build, s, 3.0)
        slow = oracle.propagate(build, s.scaled(3.0))
        assert fast.delays[0].tolist() == slow.final_delay

    def test_base_spec_scale_respected_by_sweep(self, ring_trace):
        """sweep_scales composes the spec's own scale with the ladder."""
        from repro.core import sweep_scales

        s2 = spec(scale=2.0)
        doubled = sweep_scales(ring_trace, s2, [1.0])
        base = sweep_scales(ring_trace, spec(scale=1.0), [2.0])
        assert doubled.points[0].delays == pytest.approx(base.points[0].delays)


class TestValidation:
    def test_length_checked(self, build):
        with pytest.raises(ValueError, match="length"):
            compiled_plan(build).propagate_presampled_batch(np.zeros(1), [1.0])

    def test_mode_checked(self, build):
        with pytest.raises(ValueError, match="mode"):
            presampled(build, spec(), 1.0, mode="quantum")
