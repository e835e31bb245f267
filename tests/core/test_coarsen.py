"""Tests for phase coarsening: the hierarchical two-level plan IR.

The contract under test is absolute: a coarse plan is a *schedule*
optimization, never an arithmetic one, so every result — single
propagations, replicate batches, presampled sweeps, Monte-Carlo through
a process pool — must be bit-for-bit identical to the flat compiled
engine (and therefore to the in-core reference).  Detection must also
be safely conservative: traces without enough repeated structure
coarsen to nothing and take the flat path untouched.
"""

import gc
import pickle
import types

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.core import (
    CompiledPlan,
    PerturbationSpec,
    build_graph,
    compiled_plan,
    monte_carlo,
    rank_influence,
    sweep_scales,
)
from repro.core.checkpoint import build_digest
from repro.core.coarsen import COARSEN_CHOICES, MIN_REPEATS, Level
from repro.diagnose import extract_critical_path
from repro.mpisim import run
from repro.noise import Constant, Empirical, Exponential, MachineSignature, Uniform
from repro.noise.distributions import LogNormal
from repro.testing import oracle
from repro.verify import makespan_bounds
from tests.conftest import assert_incore_equal, plan_program

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False

SIGNATURES = {
    "const": MachineSignature(
        os_noise=Constant(100.0), latency=Constant(50.0), per_byte=Constant(0.01)
    ),
    "expo": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), per_byte=Constant(0.005)
    ),
    "uniform": MachineSignature(
        os_noise=Uniform(0.0, 240.0), latency=Uniform(5.0, 95.0), per_byte=Constant(0.005)
    ),
    # No vectorized fast path: every lane resamples through the scalar spec.
    "fallback": MachineSignature(
        os_noise=LogNormal(3.0, 0.5), latency=Exponential(40.0), per_byte=Constant(0.005)
    ),
    # Measured tables on the template sampler: bootstrap (not a power of
    # two) and interpolated Empirical draws around an Exponential one.
    "measured": MachineSignature(
        os_noise=Empirical(np.random.default_rng(1).pareto(3.0, 1000) * 80.0),
        latency=Empirical(np.random.default_rng(2).pareto(3.0, 300) * 40.0, interpolate=True),
        per_byte=Exponential(0.004),
    ),
    # os_quantum > 0 makes draw programs weight-dependent: the coarse
    # template bind must refuse and the batch fall back to the flat path.
    "quantum": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), os_quantum=500.0
    ),
}


@pytest.fixture(scope="module")
def app_builds():
    builds = {}
    for name, (factory, params_cls) in sorted(ALL_APPS.items()):
        p = 8 if name == "butterfly_allreduce" else 4
        trace = run(factory(params_cls()), nprocs=p, seed=1).trace
        builds[name] = (trace, build_graph(trace))
    return builds


# ---------------------------------------------------------------------------
# Cross-engine bit-identity matrix: coarse vs flat vs in-core
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", sorted(ALL_APPS))
@pytest.mark.parametrize("mode", ["additive", "threshold"])
def test_coarse_engine_matrix(app_builds, app, mode):
    _, build = app_builds[app]
    coarse = CompiledPlan(build, coarsen="on")
    flat = CompiledPlan(build, coarsen="off")
    assert flat.coarse is None
    seeds = [0, 7, 123456789]
    for sig_name, sig in SIGNATURES.items():
        for seed in seeds:
            spec = PerturbationSpec(sig, seed=seed, scale=1.5)
            assert_incore_equal(
                coarse.propagate_one(spec, mode=mode),
                oracle.propagate(build, spec, mode=mode),
                f"{app}/{sig_name}/seed={seed}",
            )
        spec = PerturbationSpec(sig, seed=seeds[0], scale=1.5)
        bc = coarse.propagate_batch(spec, seeds=seeds, mode=mode)
        bf = flat.propagate_batch(spec, seeds=seeds, mode=mode)
        assert np.array_equal(bc.delays, bf.delays), f"{app}/{sig_name}"
        assert np.array_equal(bc.clamped, bf.clamped), f"{app}/{sig_name}"


def test_iterative_apps_actually_coarsen(app_builds):
    # The matrix above would pass vacuously if detection never fired;
    # pin the iterative apps where the two-level plan must exist.
    for app in ("stencil1d", "allreduce_iter", "token_ring"):
        _, build = app_builds[app]
        assert CompiledPlan(build, coarsen="on").coarse is not None, app


def test_presampled_batch_matches_flat(app_builds):
    _, build = app_builds["stencil1d"]
    coarse = CompiledPlan(build, coarsen="on")
    flat = CompiledPlan(build, coarsen="off")
    spec = PerturbationSpec(SIGNATURES["expo"], seed=11)
    raw = flat.sample_raw_batch(spec.signature, [spec.seed], 1.0)[0]
    scales = [0.0, 0.25, 1.0, 2.0, -1.0]
    for mode in ("additive", "threshold"):
        pc = coarse.propagate_presampled_batch(raw, scales, mode=mode)
        pf = flat.propagate_presampled_batch(raw, scales, mode=mode)
        assert np.array_equal(pc.delays, pf.delays), mode
        assert np.array_equal(pc.clamped, pf.clamped), mode


@pytest.mark.parametrize("coarsen", ["on", "off"])
def test_unknown_mode_is_refused_on_every_plan(app_builds, coarsen):
    # The coarse walk once applied any unknown mode as additive; both
    # plans must refuse it on every entry point.  ``None`` (the walk's
    # unclamped costs) is no propagation mode either.
    _, build = app_builds["stencil1d"]
    plan = CompiledPlan(build, coarsen=coarsen)
    assert (plan.coarse is not None) == (coarsen == "on")
    spec = PerturbationSpec(SIGNATURES["expo"], seed=11)
    raw = plan.sample_raw_batch(spec.signature, [spec.seed], 1.0)[0]
    for mode in ("bogus", None):
        with pytest.raises(ValueError, match="mode"):
            plan.propagate_presampled_batch(raw, [1.0], mode=mode)
        with pytest.raises(ValueError, match="mode"):
            plan.propagate_batch(spec, seeds=[1, 2], mode=mode)
        with pytest.raises(ValueError, match="mode"):
            plan.propagate_one(spec, mode=mode)


def test_quantum_signature_takes_flat_path_with_identical_results(app_builds):
    _, build = app_builds["stencil1d"]
    coarse = CompiledPlan(build, coarsen="on")
    sig = SIGNATURES["quantum"]
    assert not coarse._coarse_ready(sig)
    spec = PerturbationSpec(sig, seed=3)
    ref = oracle.propagate(build, spec)
    assert coarse.propagate_one(spec).final_delay == ref.final_delay


# ---------------------------------------------------------------------------
# Two-level plans through pickle and the process pool
# ---------------------------------------------------------------------------


def test_coarse_plan_pickle_roundtrip_is_bit_identical(app_builds):
    _, build = app_builds["stencil1d"]
    plan = CompiledPlan(build, coarsen="on")
    assert plan.coarse is not None
    spec = PerturbationSpec(SIGNATURES["expo"], seed=9)
    before = plan.propagate_batch(spec, seeds=[9, 10, 11])
    clone: CompiledPlan = pickle.loads(pickle.dumps(plan))
    assert clone.coarse is not None
    after = clone.propagate_batch(spec, seeds=[9, 10, 11])
    assert np.array_equal(before.delays, after.delays)


def forced_build(monkeypatch, trace, coarse: bool):
    """A fresh build whose automatic plan is forced coarse or flat by
    moving the ``coarsen="auto"`` size threshold every production path
    compiles under."""
    monkeypatch.setattr("repro.core.compiled.AUTO_MIN_NODES", 0 if coarse else 10**12)
    build = build_graph(trace)
    assert (compiled_plan(build).coarse is not None) == coarse
    return build


def test_monte_carlo_coarsen_through_process_pool(app_builds, monkeypatch):
    # jobs=2 ships the two-level plan to ProcessPoolBackend workers —
    # the full pickle + per-worker rebind path must stay exact.
    trace, _ = app_builds["allreduce_iter"]
    spec = PerturbationSpec(SIGNATURES["expo"], seed=17)
    ref = monte_carlo(forced_build(monkeypatch, trace, False), spec, replicates=12)
    coarse = forced_build(monkeypatch, trace, True)
    for kwargs in ({}, {"jobs": 2}):
        got = monte_carlo(coarse, spec, replicates=12, **kwargs)
        assert np.array_equal(ref.samples, got.samples), kwargs
        assert ref.seeds == got.seeds


def test_sweep_and_influence_coarsen_agree(app_builds, monkeypatch):
    trace, _ = app_builds["stencil1d"]
    spec = PerturbationSpec(SIGNATURES["uniform"], seed=5)
    flat = forced_build(monkeypatch, trace, False)
    coarse = forced_build(monkeypatch, trace, True)
    ref = sweep_scales(trace, spec, [0.0, 0.5, 2.0], build=flat)
    got = sweep_scales(trace, spec, [0.0, 0.5, 2.0], build=coarse)
    for a, b in zip(ref.points, got.points):
        assert a.delays == b.delays, a.x
    mref = rank_influence(flat, Exponential(120.0))
    mgot = rank_influence(coarse, Exponential(120.0))
    assert np.array_equal(mref.matrix, mgot.matrix)


# ---------------------------------------------------------------------------
# Conservative detection: no repeats -> no coarsening, identical results
# ---------------------------------------------------------------------------

_DISTINCT_ROUNDS = [
    ("compute", 1_000),
    ("compute", 2_500),
    ("ring", 64),
    ("xchg", 256),
    ("nb", 128),
    ("allreduce", 32),
    ("barrier",),
    ("bcast", 0, 64),
    ("reduce", 1, 16),
    ("scan", 8),
]


if HAVE_HYPOTHESIS:

    @given(
        rounds=st.lists(
            st.sampled_from(range(len(_DISTINCT_ROUNDS))),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        nprocs=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_repeat_trace_coarsens_to_nothing(rounds, nprocs, seed):
        # Each round kind appears at most once — far below MIN_REPEATS —
        # so detection must return None and the "on" plan must behave as
        # the flat plan bit-for-bit.
        plan_rounds = [_DISTINCT_ROUNDS[i] for i in rounds]
        trace = run(plan_program(plan_rounds), nprocs=nprocs, seed=seed).trace
        build = build_graph(trace)
        coarse = CompiledPlan(build, coarsen="on")
        assert coarse.coarse is None
        spec = PerturbationSpec(SIGNATURES["expo"], seed=seed & 0xFFFF)
        ref = oracle.propagate(build, spec)
        assert coarse.propagate_one(spec).final_delay == ref.final_delay


def test_min_repeats_boundary():
    # MIN_REPEATS-1 repetitions must not coarsen; a few more must.
    below = [("nb", 128)] * (MIN_REPEATS - 1)
    trace = run(plan_program(below), nprocs=4, seed=2).trace
    assert CompiledPlan(build_graph(trace), coarsen="on").coarse is None
    above = [("nb", 128)] * (MIN_REPEATS * 3)
    trace = run(plan_program(above), nprocs=4, seed=2).trace
    plan = CompiledPlan(build_graph(trace), coarsen="on")
    assert plan.coarse is not None
    spec = PerturbationSpec(SIGNATURES["expo"], seed=6)
    ref = oracle.propagate(build_graph(trace), spec)
    assert plan.propagate_one(spec).final_delay == ref.final_delay


def test_detect_phases_rejects_small_graphs_under_auto(app_builds):
    # auto gates on AUTO_MIN_NODES; tiny builds stay flat without error.
    _, build = app_builds["stencil1d"]
    assert CompiledPlan(build, coarsen="auto").coarse is None
    assert CompiledPlan(build, coarsen="off").coarse is None


def test_detect_phases_is_deterministic(app_builds):
    _, build = app_builds["stencil1d"]
    a = CompiledPlan(build, coarsen="on")
    b = CompiledPlan(build, coarsen="on")
    assert a.coarse is not None and b.coarse is not None
    assert np.array_equal(a.coarse.run_edge_ids, b.coarse.run_edge_ids)
    assert np.array_equal(a.coarse.static_eids, b.coarse.static_eids)


def test_coarsen_choices_validated(app_builds):
    _, build = app_builds["token_ring"]
    assert COARSEN_CHOICES == ("auto", "on", "off")
    with pytest.raises(ValueError, match="coarsen"):
        compiled_plan(build, coarsen="bogus")
    with pytest.raises(ValueError, match="coarsen"):
        CompiledPlan(build, coarsen="bogus")


def test_detection_bails_on_irregular_structure(app_builds):
    # master_worker's data-dependent task farm has no congruent phase
    # run; detection must bail rather than force a wrong template —
    # and the forced-"on" plan must still match the reference exactly.
    _, build = app_builds["master_worker"]
    plan = CompiledPlan(build, coarsen="on")
    assert plan.coarse is None
    spec = PerturbationSpec(SIGNATURES["expo"], seed=2)
    assert plan.propagate_one(spec).final_delay == oracle.propagate(build, spec).final_delay


# ---------------------------------------------------------------------------
# Plan memory
# ---------------------------------------------------------------------------


def _levels_held(plan) -> int:
    """The ``Level`` records reachable from ``plan`` (not looking into
    arrays, types, modules or functions)."""
    skip = (np.ndarray, type, types.ModuleType, types.FunctionType)
    seen, stack, count = set(), [plan], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        count += isinstance(obj, Level)
        stack.extend(gc.get_referents(obj))
    return count


def test_coarse_plan_keeps_no_flat_schedule(app_builds, monkeypatch):
    """A coarse plan holds its IR's levels and the template's per-frame
    copies, never the flat schedule: not after compile, any analysis,
    or the pickle round trip that ships it to pool workers."""
    monkeypatch.setattr("repro.core.compiled.AUTO_MIN_NODES", 0)
    trace, _ = app_builds["stencil1d"]
    build = build_graph(trace)
    plan = compiled_plan(build)
    ir = plan.coarse
    assert ir is not None
    held = len(ir.pre_levels) + len(ir.post_levels) + ir.L * len(ir.tmpl_levels)
    assert held < len(plan.levels)  # the flat schedule is derived, not kept
    sig = SIGNATURES["expo"]
    spec = PerturbationSpec(sig, seed=4)
    steps = {
        "compile": lambda: None,
        "propagate_batch": lambda: plan.propagate_batch(spec, seeds=[1, 2]),
        "propagate_one": lambda: plan.propagate_one(spec),
        "extract_critical_path": lambda: extract_critical_path(build),
        "makespan_bounds": lambda: makespan_bounds(plan, sig),
    }
    for step, call in steps.items():
        call()
        assert _levels_held(plan) <= held, step
    loaded = pickle.loads(pickle.dumps(plan))
    assert loaded.coarse is not None
    assert _levels_held(loaded) <= held


# ---------------------------------------------------------------------------
# The plan cache: one plan per build and policy, in process only
# ---------------------------------------------------------------------------


class TestPlanCache:
    """``compiled_plan`` memoizes a plan on its build, per ``coarsen``
    policy; nothing is persisted, so a plan blob left in a checkpoint
    directory (corrupt, for another build, or of an older layout) is
    never read and never changes a result."""

    def _fresh_build(self, app_builds):
        trace, _ = app_builds["stencil1d"]
        return build_graph(trace)

    def _plant(self, ckpt, build, coarsen, blob: bytes):
        path = ckpt / f"plan-{build_digest(build)}-{coarsen}.pkl"
        path.write_bytes(blob)
        return path

    def _assert_blob_ignored(self, app_builds, monkeypatch, tmp_path, blob: bytes):
        """Plant ``blob`` where a plan cache would look for the coarse
        automatic plan, then run Monte-Carlo over that directory: the
        rows match a clean run, the blob is left as it was, and only
        ``*.json`` shards are written."""
        trace, _ = app_builds["stencil1d"]
        build = forced_build(monkeypatch, trace, True)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        planted = {self._plant(ckpt, build, c, blob) for c in ("auto", "on")}
        spec = PerturbationSpec(SIGNATURES["expo"], seed=4)
        clean = monte_carlo(forced_build(monkeypatch, trace, True), spec, replicates=3)
        for resume in (False, True):
            got = monte_carlo(build, spec, replicates=3, checkpoint=ckpt, resume=resume)
            assert np.array_equal(got.samples, clean.samples)
        assert all(p.read_bytes() == blob for p in planted)
        written = {p.name for p in ckpt.iterdir()} - {p.name for p in planted}
        assert written and all(name.endswith(".json") for name in written)

    def test_roundtrip_is_bit_identical(self, app_builds):
        """A cached coarse plan survives the pickle round trip that
        ships it to pool workers, and matches a plan compiled afresh
        on a rebuilt graph."""
        build = self._fresh_build(app_builds)
        plan = compiled_plan(build, coarsen="on")
        assert plan.coarse is not None
        spec = PerturbationSpec(SIGNATURES["expo"], seed=4)
        ref = plan.propagate_batch(spec, seeds=[1, 2, 3])
        loaded = pickle.loads(pickle.dumps(plan))
        assert loaded.coarse is not None
        fresh = compiled_plan(self._fresh_build(app_builds), coarsen="on")
        for other in (loaded, fresh):
            got = other.propagate_batch(spec, seeds=[1, 2, 3])
            assert np.array_equal(ref.delays, got.delays)

    def test_compiled_plan_uses_cache_on_fresh_build(self, app_builds):
        build = self._fresh_build(app_builds)
        plan = compiled_plan(build, coarsen="on")
        rebuilt = self._fresh_build(app_builds)
        again = compiled_plan(rebuilt, coarsen="on")
        assert again is not plan and again.coarse is not None
        # memoized on the new build object as well
        assert compiled_plan(rebuilt, coarsen="on") is again
        assert compiled_plan(build, coarsen="on") is plan

    def test_cache_is_keyed_by_coarsen_policy(self, app_builds):
        build = self._fresh_build(app_builds)
        on = compiled_plan(build, coarsen="on")
        off = compiled_plan(build, coarsen="off")
        assert on is not off
        assert on.coarse is not None and off.coarse is None
        assert compiled_plan(build, coarsen="on") is on
        assert compiled_plan(build, coarsen="off") is off
        spec = PerturbationSpec(SIGNATURES["expo"], seed=4)
        assert np.array_equal(
            on.propagate_batch(spec, seeds=[5]).delays,
            off.propagate_batch(spec, seeds=[5]).delays,
        )

    def test_corrupt_cache_falls_back_to_recompile(self, app_builds, monkeypatch, tmp_path):
        self._assert_blob_ignored(app_builds, monkeypatch, tmp_path, b"not a pickle")

    def test_wrong_digest_rejected(self, app_builds, monkeypatch, tmp_path):
        """Another build's plan, even filed under this build's digest,
        is never handed out."""
        other_trace, _ = app_builds["token_ring"]
        other = CompiledPlan(build_graph(other_trace), coarsen="on")
        self._assert_blob_ignored(app_builds, monkeypatch, tmp_path, pickle.dumps(other))

    @pytest.mark.parametrize(
        "schema", ["repro-plan-cache/1", "repro-plan-cache/3", "repro-plan-cache/4"]
    )
    def test_previous_schema_blob_is_a_miss(self, app_builds, monkeypatch, tmp_path, schema):
        """A blob cached under a previous plan layout (``/1``: no delta
        columns; ``/3``: class-based level records; ``/4``: a flat level
        schedule on coarse plans too) is never read: the plan in use is
        compiled from the build and carries its delta columns."""
        build = self._fresh_build(app_builds)
        old = CompiledPlan(build, coarsen="on")
        for name in ("delta_rank", "delta_src", "delta_dst", "delta_rounds"):
            delattr(old, name)
        blob = {
            "schema": schema,
            "digest": build_digest(build),
            "numpy": np.__version__,
            "coarsen": "on",
            "plan": old,
        }
        self._assert_blob_ignored(app_builds, monkeypatch, tmp_path, pickle.dumps(blob))
        plan = compiled_plan(build, coarsen="on")
        assert np.array_equal(plan.delta_rank, build.graph.delta_rank)
