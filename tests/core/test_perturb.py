"""Tests for deterministic per-edge perturbation sampling."""

import pytest

from repro.core.graph import DeltaKind, DeltaSpec
from repro.core.perturb import PerturbationSpec
from repro.noise import Constant, Exponential, MachineSignature


@pytest.fixture
def spec():
    return PerturbationSpec(
        MachineSignature(
            os_noise=Constant(10.0),
            latency=Constant(3.0),
            per_byte=Constant(0.5),
        ),
        seed=1,
    )


def ds(kind, **kw):
    kw.setdefault("uid", (9, 9))
    return DeltaSpec(kind, **kw)


class TestComposition:
    def test_none_zero(self, spec):
        assert spec.sample(DeltaSpec(DeltaKind.NONE)) == 0.0

    def test_os(self, spec):
        assert spec.sample(ds(DeltaKind.OS, rank=0)) == 10.0

    def test_latency(self, spec):
        assert spec.sample(ds(DeltaKind.LATENCY, src=0, dst=1)) == 3.0

    def test_transfer(self, spec):
        assert spec.sample(ds(DeltaKind.TRANSFER, src=0, dst=1, nbytes=4)) == 3.0 + 2.0

    def test_transfer_os(self, spec):
        # λ + t(d) + os2 (Eq. 1 second line)
        assert spec.sample(ds(DeltaKind.TRANSFER_OS, rank=1, src=0, dst=1, nbytes=4)) == 15.0

    def test_roundtrip(self, spec):
        # λ→ + t(d) + os + λ←
        assert spec.sample(ds(DeltaKind.ROUNDTRIP, rank=1, src=0, dst=1, nbytes=4)) == 18.0

    def test_coll_fanin(self, spec):
        # rounds × (os + λ + t(d))
        v = spec.sample(ds(DeltaKind.COLL_FANIN, rank=0, src=0, dst=0, nbytes=2, rounds=3))
        assert v == pytest.approx(3 * (10.0 + 3.0 + 1.0))

    def test_coll_fanin_no_bytes(self, spec):
        v = spec.sample(ds(DeltaKind.COLL_FANIN, rank=0, src=0, dst=0, nbytes=0, rounds=2))
        assert v == pytest.approx(2 * 13.0)


class TestDeterminism:
    def test_same_uid_same_value(self):
        sig = MachineSignature(os_noise=Exponential(100.0))
        spec = PerturbationSpec(sig, seed=3)
        d = ds(DeltaKind.OS, rank=0, uid=(1, 2, 3))
        assert spec.sample(d) == spec.sample(d)

    def test_different_uid_different_value(self):
        sig = MachineSignature(os_noise=Exponential(100.0))
        spec = PerturbationSpec(sig, seed=3)
        a = spec.sample(ds(DeltaKind.OS, rank=0, uid=(1, 2, 3)))
        b = spec.sample(ds(DeltaKind.OS, rank=0, uid=(1, 2, 4)))
        assert a != b

    def test_different_seed_different_value(self):
        sig = MachineSignature(os_noise=Exponential(100.0))
        d = ds(DeltaKind.OS, rank=0)
        a = PerturbationSpec(sig, seed=1).sample(d)
        b = PerturbationSpec(sig, seed=2).sample(d)
        assert a != b

    def test_order_independence(self):
        """Visit order must not change per-edge draws — the property that
        makes streaming ≡ in-core."""
        sig = MachineSignature(os_noise=Exponential(100.0), latency=Exponential(5.0))
        spec = PerturbationSpec(sig, seed=9)
        edges = [ds(DeltaKind.OS, rank=r, uid=(4, r)) for r in range(10)]
        forward = [spec.sample(e) for e in edges]
        backward = [spec.sample(e) for e in reversed(edges)][::-1]
        assert forward == backward

    def test_missing_uid_rejected(self, spec):
        with pytest.raises(ValueError, match="uid"):
            spec.sample(DeltaSpec(DeltaKind.OS, rank=0))


class TestScale:
    def test_scale_multiplies(self, spec):
        d = ds(DeltaKind.OS, rank=0)
        assert spec.scaled(3.0).sample(d) == 30.0
        assert spec.scaled(0.0).sample(d) == 0.0

    def test_negative_scale_for_speedups(self, spec):
        d = ds(DeltaKind.OS, rank=0)
        assert spec.scaled(-1.0).sample(d) == -10.0

    def test_scaled_keeps_seed(self, spec):
        d = ds(DeltaKind.OS, rank=0, uid=(8,))
        assert spec.scaled(2.0).sample(d) == 2.0 * spec.sample(d)

    def test_per_rank_overrides_respected(self):
        sig = MachineSignature(
            os_noise=Constant(1.0), os_noise_by_rank={3: Constant(100.0)}
        )
        spec = PerturbationSpec(sig, seed=0)
        assert spec.sample(ds(DeltaKind.OS, rank=0)) == 1.0
        assert spec.sample(ds(DeltaKind.OS, rank=3)) == 100.0

    def test_per_link_overrides_respected(self):
        sig = MachineSignature(
            latency=Constant(1.0), latency_by_link={(0, 1): Constant(50.0)}
        )
        spec = PerturbationSpec(sig, seed=0)
        assert spec.sample(ds(DeltaKind.LATENCY, src=0, dst=1)) == 50.0
        assert spec.sample(ds(DeltaKind.LATENCY, src=1, dst=0)) == 1.0
