"""Certified makespan bounds: containment of real Monte-Carlo samples,
bit-stability across the coarsening setting, and the certificate's
self-description (absolute vs sound-up-to-q)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.core import PerturbationSpec, build_graph, monte_carlo
from repro.core.compiled import compiled_plan
from repro.mpisim import run
from repro.noise import Constant, Empirical, MachineSignature
from repro.verify import edge_intervals, makespan_bounds

from tests.conftest import plan_program

REPLICATES = 40


@pytest.fixture(params=["ring", "stencil"])
def build(request, ring_trace, stencil_trace):
    trace = ring_trace if request.param == "ring" else stencil_trace
    return build_graph(trace)


class TestContainment:
    @pytest.mark.parametrize("mode", ["additive", "threshold"])
    def test_monte_carlo_replicates_inside_bounds(self, build, mixed_signature, mode):
        plan = compiled_plan(build)
        bounds = makespan_bounds(plan, mixed_signature, mode=mode)
        spec = PerturbationSpec(mixed_signature, seed=11)
        dist = monte_carlo(build, spec, replicates=REPLICATES, mode=mode)
        assert bounds.contains(dist.samples).all()
        assert bounds.violations(dist.samples) == []

    def test_scaled_bounds_cover_scaled_run(self, build, mixed_signature):
        plan = compiled_plan(build)
        bounds = makespan_bounds(plan, mixed_signature, scale=2.5)
        spec = PerturbationSpec(mixed_signature, seed=11, scale=2.5)
        dist = monte_carlo(build, spec, replicates=REPLICATES)
        assert bounds.contains(dist.samples).all()

    def test_constant_signature_pins_the_interval(self, build, const_signature, const_spec):
        plan = compiled_plan(build)
        bounds = makespan_bounds(plan, const_signature)
        assert bounds.absolute
        dist = monte_carlo(build, const_spec, replicates=3)
        # Every replicate of a deterministic signature IS the bound.
        assert bounds.rank_lo.tolist() == bounds.rank_hi.tolist()
        assert (dist.samples == bounds.rank_lo).all()

    def test_narrowed_bound_is_caught(self, build, mixed_signature):
        """Mutation check: shrink the certified ceiling and the
        containment cross-check must start reporting violations."""
        plan = compiled_plan(build)
        bounds = makespan_bounds(plan, mixed_signature)
        spec = PerturbationSpec(mixed_signature, seed=11)
        dist = monte_carlo(build, spec, replicates=REPLICATES)
        median = np.median(dist.samples, axis=0)
        narrowed = type(bounds)(
            rank_lo=bounds.rank_lo,
            rank_hi=median,
            quantile=bounds.quantile,
            q_bounded_edges=bounds.q_bounded_edges,
            sampled_edges=bounds.sampled_edges,
            scale=bounds.scale,
            mode=bounds.mode,
            coarse=bounds.coarse,
        )
        assert narrowed.violations(dist.samples) != []

    def test_nan_rows_count_as_contained(self, build, mixed_signature):
        plan = compiled_plan(build)
        bounds = makespan_bounds(plan, mixed_signature)
        nprocs = len(bounds.rank_lo)
        samples = np.full((2, nprocs), np.nan)
        samples[1] = bounds.rank_hi * 100.0
        assert bounds.contains(samples).tolist() == [True, False]
        assert bounds.violations(samples) == [1]

    def test_shape_mismatch_rejected(self, build, mixed_signature):
        bounds = makespan_bounds(compiled_plan(build), mixed_signature)
        with pytest.raises(ValueError, match="samples must be"):
            bounds.contains(np.zeros((3, len(bounds.rank_lo) + 1)))


@lru_cache(maxsize=None)
def _allreduce_build():
    factory, params_cls = ALL_APPS["allreduce_iter"]
    return build_graph(run(factory(params_cls(iterations=4)), nprocs=4, seed=1).trace)


_value = st.floats(-50.0, 2000.0, allow_nan=False)


@st.composite
def _const_signatures(draw):
    """All-Constant signatures with per-rank OS and per-link latency
    overrides, in the paper's per-edge model or interval-scaled."""
    ranks = draw(st.sets(st.integers(0, 4), max_size=2))
    links = draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3))
    return MachineSignature(
        os_noise=Constant(draw(_value)),
        latency=Constant(draw(_value)),
        per_byte=Constant(draw(st.floats(0.0, 5.0))),
        os_noise_by_rank={r: Constant(draw(_value)) for r in sorted(ranks)},
        latency_by_link={link: Constant(draw(_value)) for link in sorted(links)},
        os_quantum=draw(st.just(0.0) | st.floats(50.0, 5000.0)),
        name="const",
    )


_plan_round = st.one_of(
    st.tuples(st.just("compute"), st.integers(100, 3000)),
    st.tuples(st.just("nb"), st.integers(0, 20_000)),
    st.tuples(st.just("allreduce"), st.integers(0, 128)),
    st.tuples(st.just("bcast"), st.integers(0, 4), st.integers(0, 512)),
    st.tuples(st.just("fanin"), st.integers(0, 512)),
    st.tuples(st.just("barrier")),
)
_plans = st.tuples(st.lists(_plan_round, min_size=1, max_size=4), st.integers(2, 5))

# A 4-rank allreduce under this signature once sampled its 2-round
# fan-in edges one ulp above the certified hi.
_ULP_SIGNATURE = MachineSignature(
    os_noise=Constant(901.4274576114835),
    latency=Constant(30.589983033553537),
    per_byte=Constant(1.5903663120913),
    name="const",
)


@given(
    case=st.sampled_from(["allreduce_iter", "stencil"]) | _plans,
    sig=_const_signatures(),
    coarsen=st.sampled_from(["off", "on"]),
)
@example(case="allreduce_iter", sig=_ULP_SIGNATURE, coarsen="off")
@settings(max_examples=40, deadline=None)
def test_constant_signature_samples_are_their_bounds(case, sig, coarsen, stencil_trace):
    """A deterministic signature pins every interval to a point, and
    every sample must be that point: exact, no tolerance."""
    if case == "allreduce_iter":
        build = _allreduce_build()
    elif case == "stencil":
        build = build_graph(stencil_trace)
    else:
        plan, p = case
        build = build_graph(run(plan_program(plan), nprocs=p, seed=1).trace)
    plan = compiled_plan(build, coarsen=coarsen)
    iv = edge_intervals(plan, sig)
    raw = plan.sample_raw_batch(sig, [0, 1])
    assert iv.lo.tolist() == iv.hi.tolist()
    assert (raw == iv.lo).all()
    bounds = makespan_bounds(plan, sig)
    dist = monte_carlo(build, PerturbationSpec(sig, seed=3), replicates=2)
    assert bounds.rank_lo.tolist() == bounds.rank_hi.tolist()
    assert (dist.samples == bounds.rank_lo).all()


class TestCoarsenStability:
    def test_bounds_identical_across_coarsen_setting(self, build, mixed_signature):
        on = makespan_bounds(compiled_plan(build, coarsen="on"), mixed_signature)
        off = makespan_bounds(compiled_plan(build, coarsen="off"), mixed_signature)
        # Bit-stable, not merely close: the coarse walk must reproduce
        # the flat kernel's floats exactly.
        assert on.rank_lo.tolist() == off.rank_lo.tolist()
        assert on.rank_hi.tolist() == off.rank_hi.tolist()
        assert on.sampled_edges == off.sampled_edges
        assert on.q_bounded_edges == off.q_bounded_edges


class TestCertificate:
    def test_mixed_signature_is_quantile_bounded(self, build, mixed_signature):
        bounds = makespan_bounds(compiled_plan(build), mixed_signature)
        assert not bounds.absolute
        assert bounds.q_bounded_edges > 0
        assert bounds.makespan_hi >= bounds.makespan_lo >= 0.0

    def test_empirical_signature_is_absolute(self, build):
        sig = MachineSignature(
            os_noise=Empirical([10.0, 20.0, 35.0]),
            latency=Empirical([5.0, 8.0]),
            per_byte=Constant(0.01),
            name="measured",
        )
        bounds = makespan_bounds(compiled_plan(build), sig)
        assert bounds.absolute
        assert bounds.q_bounded_edges == 0

    def test_edge_intervals_ordered(self, build, mixed_signature):
        iv = edge_intervals(compiled_plan(build), mixed_signature)
        assert (iv.lo <= iv.hi).all()
        assert (iv.lo >= 0.0).all()  # samplers clamp at zero
        assert iv.q_bounded_edges == int((iv.lo_q | iv.hi_q).sum())

    def test_as_dict_round_trips_the_summary(self, build, mixed_signature):
        bounds = makespan_bounds(compiled_plan(build), mixed_signature, scale=1.5)
        d = bounds.as_dict()
        assert d["makespan_hi"] == bounds.makespan_hi
        assert d["scale"] == 1.5
        assert d["absolute"] is False
        assert len(d["rank_lo"]) == len(bounds.rank_lo)

    def test_bad_mode_rejected(self, build, mixed_signature):
        with pytest.raises(ValueError, match="mode"):
            makespan_bounds(compiled_plan(build), mixed_signature, mode="bogus")
