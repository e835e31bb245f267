"""Tests for the interval-scaled OS-noise extension (``os_quantum``).

The paper applies the measured δ_os distribution once per local edge;
the extension draws one sample per measurement quantum of observed edge
duration (DESIGN.md §4, ablated in ABL3).
"""


import pytest

from repro.core import PerturbationSpec, build_graph, propagate
from repro.core.graph import DeltaKind, DeltaSpec
from repro.mpisim import run
from repro.noise import Constant, Exponential, MachineSignature

from tests.conftest import assert_engines_agree, plan_program


def ds(**kw):
    kw.setdefault("uid", (1, 2))
    return DeltaSpec(DeltaKind.OS, rank=0, **kw)


class TestSignatureQuantum:
    def test_os_draws_counts(self):
        sig = MachineSignature(os_noise=Constant(10.0), os_quantum=1000.0)
        assert sig.os_draws(0.0) == 1
        assert sig.os_draws(1.0) == 1
        assert sig.os_draws(1000.0) == 1
        assert sig.os_draws(1001.0) == 2
        assert sig.os_draws(10_500.0) == 11

    def test_zero_quantum_always_one(self):
        sig = MachineSignature(os_noise=Constant(10.0))
        assert sig.os_draws(1e9) == 1

    def test_sample_interval_sums(self, rng):
        sig = MachineSignature(os_noise=Constant(10.0), os_quantum=1000.0)
        assert sig.sample_os_interval(rng, 0, 5000.0) == pytest.approx(50.0)
        assert sig.sample_os_interval(rng, 0, 500.0) == pytest.approx(10.0)

    def test_serialization_round_trip(self):
        sig = MachineSignature(os_noise=Constant(5.0), os_quantum=2048.0)
        restored = MachineSignature.from_dict(sig.to_dict())
        assert restored.os_quantum == 2048.0

    def test_scaled_preserves_quantum(self):
        sig = MachineSignature(os_noise=Constant(5.0), os_quantum=777.0)
        assert sig.scaled(2.0).os_quantum == 777.0


class TestSpecWeighting:
    def test_os_sampling_scales_with_weight(self):
        sig = MachineSignature(os_noise=Constant(10.0), os_quantum=100.0)
        spec = PerturbationSpec(sig, seed=0)
        assert spec.sample(ds(), weight=1000.0) == pytest.approx(100.0)
        assert spec.sample(ds(), weight=0.0) == pytest.approx(10.0)

    def test_non_os_kinds_ignore_weight(self):
        sig = MachineSignature(latency=Constant(5.0), os_quantum=100.0)
        spec = PerturbationSpec(sig, seed=0)
        d = DeltaSpec(DeltaKind.LATENCY, src=0, dst=1, uid=(3,))
        assert spec.sample(d, weight=10_000.0) == spec.sample(d, weight=0.0)

    def test_deterministic_per_weight(self):
        sig = MachineSignature(os_noise=Exponential(10.0), os_quantum=100.0)
        spec = PerturbationSpec(sig, seed=4)
        a = spec.sample(ds(), weight=5000.0)
        b = spec.sample(ds(), weight=5000.0)
        assert a == b


class TestTraversalIntegration:
    def test_longer_edges_more_noise(self, ring_trace):
        quantum_sig = MachineSignature(os_noise=Constant(10.0), os_quantum=1000.0)
        edge_sig = MachineSignature(os_noise=Constant(10.0))
        build = build_graph(ring_trace)
        scaled = propagate(build, PerturbationSpec(quantum_sig, seed=0))
        flat = propagate(build, PerturbationSpec(edge_sig, seed=0))
        # The ring has multi-thousand-cycle compute gaps: interval scaling
        # must add strictly more delay than one draw per edge.
        assert scaled.max_delay > flat.max_delay

    def test_streaming_equality_with_quantum(self, ring_trace, stencil_trace):
        sig = MachineSignature(
            os_noise=Exponential(50.0), latency=Exponential(20.0), os_quantum=2000.0
        )
        spec = PerturbationSpec(sig, seed=6)
        assert_engines_agree(ring_trace, spec)
        assert_engines_agree(stencil_trace, spec)

    def test_streaming_equality_random_plans(self):
        sig = MachineSignature(os_noise=Exponential(80.0), os_quantum=500.0)
        spec = PerturbationSpec(sig, seed=1)
        plan = [("compute", 3000), ("nb", 256), ("allreduce", 32), ("ring", 128)]
        trace = run(plan_program(plan), nprocs=4, seed=2).trace
        assert_engines_agree(trace, spec)


class TestHarnessIntegration:
    def test_measured_signature_carries_quantum(self):
        from repro.microbench import measure_machine
        from repro.mpisim import Machine
        from repro.noise import DistributionNoise

        machine = Machine(nprocs=2, noise=DistributionNoise(Exponential(50.0)), name="m")
        report = measure_machine(machine, seed=0, ftq_quanta=64, ftq_quantum=12_345.0,
                                 pingpong_iterations=8, bandwidth_iterations=4,
                                 mraz_messages=8)
        sig = report.to_signature()
        assert sig.os_quantum == 12_345.0
