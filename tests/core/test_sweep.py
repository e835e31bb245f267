"""Tests for noise sweeps and sensitivity curves (§6)."""

import pytest

from repro.core import PerturbationSpec, fit_slope, sweep_scales, sweep_signatures
from repro.noise import Constant, MachineSignature


def const_sig(os=100.0, lat=0.0):
    return MachineSignature(os_noise=Constant(os), latency=Constant(lat), name=f"os{os}")


class TestSweepScales:
    def test_linear_response_to_constant_noise(self, ring_trace):
        spec = PerturbationSpec(const_sig(), seed=0)
        sweep = sweep_scales(ring_trace, spec, [0.0, 1.0, 2.0, 3.0])
        ys = sweep.max_delays()
        assert ys[0] == 0.0
        # Constant deltas scale linearly, so max delay is exactly linear.
        assert ys[2] == pytest.approx(2 * ys[1])
        assert ys[3] == pytest.approx(3 * ys[1])
        assert sweep.slope() == pytest.approx(ys[1])

    def test_streaming_engine_matches(self, ring_trace):
        # A base scale != 1 composes with the ladder on both engines.
        for base in (1.0, 2.0):
            spec = PerturbationSpec(const_sig(), seed=0, scale=base)
            a = sweep_scales(ring_trace, spec, [0.5, 1.5], engine="compiled")
            b = sweep_scales(ring_trace, spec, [0.5, 1.5], engine="streaming")
            for pa, pb in zip(a.points, b.points):
                assert pa.delays == tuple(pytest.approx(d) for d in pb.delays), base

    def test_bad_engine_rejected(self, ring_trace):
        spec = PerturbationSpec(const_sig(), seed=0)
        with pytest.raises(ValueError, match="engine"):
            sweep_scales(ring_trace, spec, [1.0], engine="quantum")

    def test_tolerance_threshold(self, ring_trace):
        spec = PerturbationSpec(const_sig(), seed=0)
        sweep = sweep_scales(ring_trace, spec, [0.0, 1.0, 2.0, 4.0])
        budget = sweep.points[1].max_delay * 1.5
        assert sweep.tolerance_threshold(budget) == 2.0
        assert sweep.tolerance_threshold(float("inf")) is None

    def test_table_renders(self, ring_trace):
        spec = PerturbationSpec(const_sig(), seed=0)
        sweep = sweep_scales(ring_trace, spec, [0.0, 1.0])
        assert "scale=1" in sweep.table()


class TestSweepSignatures:
    def test_platform_ladder(self, ring_trace):
        sigs = [const_sig(os=m) for m in (0.0, 100.0, 200.0)]
        sweep = sweep_signatures(ring_trace, sigs, xs=[0.0, 100.0, 200.0], seed=0)
        ys = sweep.max_delays()
        assert ys[0] == 0.0
        assert ys[2] == pytest.approx(2 * ys[1])
        assert [p.label for p in sweep.points] == ["os0.0", "os100.0", "os200.0"]

    def test_default_xs_are_indices(self, ring_trace):
        sweep = sweep_signatures(ring_trace, [const_sig(), const_sig()], seed=0)
        assert list(sweep.xs()) == [0.0, 1.0]

    def test_xs_length_validated(self, ring_trace):
        with pytest.raises(ValueError):
            sweep_signatures(ring_trace, [const_sig()], xs=[1.0, 2.0])


class TestFitSlope:
    def test_exact_line(self):
        assert fit_slope([0, 1, 2], [5.0, 7.0, 9.0]) == pytest.approx(2.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_slope([1.0], [2.0])

    def test_needs_varying_x(self):
        with pytest.raises(ValueError):
            fit_slope([2.0, 2.0], [1.0, 5.0])
