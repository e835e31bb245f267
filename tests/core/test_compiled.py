"""Tests for the compiled graph plan: vectorized sampling primitives
(splitmix64 / _mix / PCG64 / ziggurat fast paths) against their scalar
references, and full cross-engine bit-identity — the public
``propagate`` (the compiled plan) and ``StreamingTraversal`` against
the object-graph oracle :mod:`repro.testing.oracle` — over every
bundled app, both modes, and a ladder of seeds and scales."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import ALL_APPS
from repro.core import (
    BuildConfig,
    CompiledPlan,
    PerturbationSpec,
    StreamingTraversal,
    build_graph,
    compiled_plan,
    monte_carlo,
    propagate,
    rank_influence,
    sweep_scales,
    sweep_signatures,
)
from repro.core.graph import DeltaKind
from repro.core.perturb import _mix, _splitmix64
from repro.core.sampler import (
    _build_tables,
    _ConstDist,
    _edge_program,
    _eval_group,
    _mix_vec,
    _pcg_next64,
    _Sampler,
    _seeds_u64,
    _splitmix64_vec,
    _stream_key_arrays,
)
from repro.mpisim import run
from repro.noise import Constant, Empirical, Exponential, MachineSignature
from repro.noise.distributions import (
    Gamma,
    LogNormal,
    Normal,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform,
)
from repro.testing import oracle
from tests.conftest import assert_incore_equal, plan_program

U64 = np.uint64


# ---------------------------------------------------------------------------
# Property tests: vectorized hashing primitives == scalar perturb internals
# ---------------------------------------------------------------------------


class TestSplitmixVectorization:
    def test_splitmix64_matches_scalar_10k(self):
        rng = np.random.default_rng(101)
        # Full uint64 range, weighted toward the >= 2^63 wraparound edge.
        xs = np.concatenate(
            [
                rng.integers(0, 1 << 64, size=5000, dtype=U64),
                rng.integers(1 << 63, 1 << 64, size=4990, dtype=U64),
                np.array([0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1], dtype=U64),
                np.array([0x9E3779B97F4A7C15, 0xFFFFFFFF00000000,
                          0x00000000FFFFFFFF, 0x811C9DC5, 42], dtype=U64),
            ]
        )
        vec = _splitmix64_vec(xs)
        for x, v in zip(xs.tolist(), vec.tolist()):
            assert _splitmix64(x) == v, f"splitmix64({x:#x})"

    def test_mix_matches_scalar_over_random_uid_tuples(self):
        rng = np.random.default_rng(202)
        n, width = 2000, 5
        cols = rng.integers(0, 1 << 64, size=(n, width), dtype=U64)
        lengths = rng.integers(1, width + 1, size=n)
        vec = _mix_vec(cols, lengths)
        for i in range(n):
            uid = tuple(int(v) for v in cols[i, : lengths[i]])
            assert _mix(uid) == int(vec[i]), f"_mix{uid}"

    def test_mix_negative_ints_mask_like_scalar(self):
        # perturb._mix masks v & MASK64; the plan premasks uid columns the
        # same way, so negative uid components hash identically.
        for uid in [(-1, 7), (-(1 << 63), 3), (12, -34, 56)]:
            cols = np.array([[v & ((1 << 64) - 1) for v in uid]], dtype=U64)
            assert _mix(uid) == int(_mix_vec(cols)[0])


class TestPCG64Vectorization:
    def test_raw_stream_matches_bitgenerator(self):
        rng = np.random.default_rng(303)
        n = 500
        k, s1, s2, s3 = (rng.integers(0, 1 << 64, size=n, dtype=U64) for _ in range(4))
        hi, lo = k.copy(), s1.copy()
        inc_hi = (s2 << U64(1)) | (s3 >> U64(63))
        inc_lo = (s3 << U64(1)) | U64(1)
        outs = []
        for _ in range(3):
            hi, lo, u = _pcg_next64(hi, lo, inc_hi, inc_lo)
            outs.append(u)
        bg = np.random.PCG64(0)
        template = bg.state
        for i in range(0, n, 17):
            state = dict(template)
            inc = ((((int(s2[i]) << 64) | int(s3[i])) << 1) | 1) & ((1 << 128) - 1)
            state["state"] = {"state": (int(k[i]) << 64) | int(s1[i]), "inc": inc}
            state["has_uint32"] = 0
            state["uinteger"] = 0
            bg.state = state
            raw = bg.random_raw(3)
            for j in range(3):
                assert int(raw[j]) == int(outs[j][i])

    def test_table_harvest_verifies_on_this_numpy(self):
        # The ziggurat layouts are harvested from the live Generator and
        # self-verified; on a supported numpy every family must land on
        # its fast path (this is what makes the >= 5x speedup real —
        # correctness holds regardless via the scalar fallback lanes).
        tables = _build_tables()
        assert tables["pcg"], "vectorized PCG64 failed its raw-stream self-check"
        assert tables["uniform"]
        assert tables["exp"] is not None and tables["norm"] is not None
        we, ke = tables["exp"]
        wi, ki = tables["norm"]
        assert we.shape == ke.shape == wi.shape == ki.shape == (256,)
        assert np.all(we > 0) and np.all(wi > 0)
        # The slow-path constants derived from a fresh harvest verify too.
        assert tables["exp_slow"] is not None and tables["norm_slow"] is not None


# ---------------------------------------------------------------------------
# Cross-engine bit-identity matrix: all apps x modes x seeds x scales
# ---------------------------------------------------------------------------

def _emp(seed: int, n: int, scale: float, interpolate: bool = False) -> Empirical:
    """An ``n``-sample measured distribution (heavy-tailed, like FTQ losses)."""
    return Empirical(np.random.default_rng(seed).pareto(3.0, n) * scale, interpolate)


SIGNATURES = {
    "const": MachineSignature(
        os_noise=Constant(100.0), latency=Constant(50.0), per_byte=Constant(0.01)
    ),
    "expo": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), per_byte=Constant(0.005)
    ),
    "rich": MachineSignature(
        os_noise=Normal(120.0, 30.0),
        latency=Uniform(10.0, 90.0),
        per_byte=Shifted(Scaled(Exponential(0.004), 1.5), 0.001),
        os_noise_by_rank={1: Exponential(200.0)},
        latency_by_link={(0, 1): Normal(75.0, 5.0)},
    ),
    # No vectorized fast path for LogNormal: every lane goes through the
    # exact scalar fallback, which must still be bit-identical.
    "fallback": MachineSignature(
        os_noise=LogNormal(3.0, 0.5), latency=Exponential(40.0), per_byte=Constant(0.005)
    ),
    # Interval-scaled OS draws (os_quantum > 0): OS edges of 500+ cycles
    # take k >= 2 draws, nearly all of them k >= 8 (scalar fallback).
    "quantum": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), os_quantum=500.0
    ),
    # Measured (§5 empirical) signatures.  Bootstrap tables whose sizes
    # are not powers of two (so the Lemire step can reject), per-rank
    # overrides, interpolated tables, one-sample tables (no draw at all).
    "emp_bootstrap": MachineSignature(
        os_noise=_emp(1, 1000, 80.0),
        latency=_emp(2, 300, 40.0),
        per_byte=_emp(3, 37, 0.004),
        os_noise_by_rank={1: _emp(4, 999, 200.0)},
    ),
    "emp_interp": MachineSignature(
        os_noise=_emp(5, 1000, 80.0, True),
        latency=_emp(6, 255, 40.0, True),
        per_byte=_emp(7, 3, 0.004, True),
    ),
    "emp_single": MachineSignature(
        os_noise=Empirical([90.0]),
        latency=Empirical([35.0], interpolate=True),
        per_byte=_emp(8, 5, 0.004),
    ),
    "emp_ops": MachineSignature(
        os_noise=Shifted(Scaled(_emp(1, 1000, 80.0), 1.5), -20.0),
        latency=Scaled(_emp(6, 255, 40.0, True), 0.5),
        per_byte=Shifted(_emp(3, 37, 0.004), 0.001),
    ),
    # Empirical draws on both sides of an Exponential one: PCG64's uint32
    # buffer must survive the 64-bit draw in between.
    "emp_mixed": MachineSignature(
        os_noise=_emp(1, 1000, 80.0),
        latency=_emp(2, 300, 40.0),
        per_byte=Exponential(0.004),
    ),
    # A 5000-cycle quantum spreads the apps' OS edges over k = 1..7 draws
    # (vectorized) and k >= 8 (scalar fallback).
    "emp_quantum": MachineSignature(
        os_noise=_emp(1, 1000, 80.0),
        latency=_emp(2, 300, 40.0),
        per_byte=_emp(3, 37, 0.004),
        os_quantum=5000.0,
    ),
    "exp_quantum": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), os_quantum=5000.0
    ),
}


STREAMING_CONFIGS = [
    BuildConfig(collective_mode=mode, eager_threshold=eager)
    for mode in ("hub", "butterfly")
    for eager in (None, 64)
]


@pytest.fixture(scope="module")
def app_builds():
    builds = {}
    for name, (factory, params_cls) in sorted(ALL_APPS.items()):
        p = 8 if name == "butterfly_allreduce" else 4
        trace = run(factory(params_cls()), nprocs=p, seed=1).trace
        builds[name] = (trace, build_graph(trace))
    return builds


@pytest.mark.parametrize("app", sorted(ALL_APPS))
@pytest.mark.parametrize("mode", ["additive", "threshold"])
def test_cross_engine_matrix(app_builds, app, mode):
    trace, build = app_builds[app]
    for sig_name, sig in SIGNATURES.items():
        for seed, scale in [(0, 1.0), (7, 2.5), (123456789, -0.5)]:
            spec = PerturbationSpec(sig, seed=seed, scale=scale)
            assert_incore_equal(
                propagate(build, spec, mode=mode),
                oracle.propagate(build, spec, mode=mode),
                f"{app}/{sig_name}/seed={seed}/scale={scale}",
            )
    # Streaming evaluates the same §3 templates on the fly, so it agrees
    # exactly too, under every graph-semantics config (one point per
    # signature: it is the slow engine).
    for config in STREAMING_CONFIGS:
        cfg_build = build if config == BuildConfig() else build_graph(trace, config)
        for sig_name, sig in SIGNATURES.items():
            spec = PerturbationSpec(sig, seed=7, scale=2.5)
            ref = oracle.propagate(cfg_build, spec, mode=mode)
            got = StreamingTraversal(spec, config=config, mode=mode).run(trace)
            assert got.final_delay == ref.final_delay, f"{app}/{config}/{sig_name}"
            assert got.clamped_edges == ref.clamped_edges, f"{app}/{config}/{sig_name}"


def test_batch_rows_match_per_seed_propagations(app_builds):
    _, build = app_builds["token_ring"]
    plan = compiled_plan(build)
    sig = SIGNATURES["rich"]
    seeds = list(range(40, 60))
    for mode in ("additive", "threshold"):
        batch = plan.propagate_batch(
            PerturbationSpec(sig, seed=seeds[0], scale=1.5), seeds=seeds, mode=mode
        )
        assert batch.delays.shape == (len(seeds), build.graph.nprocs)
        for r, seed in enumerate(seeds):
            ref = oracle.propagate(build, PerturbationSpec(sig, seed=seed, scale=1.5), mode=mode)
            assert batch.delays[r].tolist() == ref.final_delay
            assert batch.clamped[r] == ref.clamped_edges


def test_plan_pickle_roundtrip_is_bit_identical(app_builds):
    _, build = app_builds["stencil1d"]
    plan = compiled_plan(build)
    spec = PerturbationSpec(SIGNATURES["expo"], seed=9)
    before = plan.propagate_batch(spec, seeds=[9, 10, 11], mode="additive")
    clone: CompiledPlan = pickle.loads(pickle.dumps(plan))
    after = clone.propagate_batch(spec, seeds=[9, 10, 11], mode="additive")
    assert np.array_equal(before.delays, after.delays)


def test_old_layout_tables_in_a_plan_pickle_are_ignored(app_builds, monkeypatch):
    """A plan pickled with tables of another layout (no slow-path
    entries) does not install them in the loading process."""
    from repro.core import sampler as C

    _, build = app_builds["stencil1d"]
    plan = compiled_plan(build)
    current = plan._tables
    old = {k: v for k, v in current.items() if k not in ("exp_slow", "norm_slow")}
    monkeypatch.setattr(plan, "_tables", old)
    blob = pickle.dumps(plan)
    monkeypatch.setattr(C, "_TABLES", None)
    pickle.loads(blob)
    assert C._TABLES is None
    monkeypatch.setattr(plan, "_tables", current)
    pickle.loads(pickle.dumps(plan))
    assert C._tables_match_candidates(C._TABLES, current)


def test_invalid_mode_and_engine_raise(app_builds):
    _, build = app_builds["token_ring"]
    plan = compiled_plan(build)
    spec = PerturbationSpec(SIGNATURES["const"], seed=0)
    with pytest.raises(ValueError, match="mode"):
        plan.propagate_batch(spec, mode="bogus")
    with pytest.raises(ValueError, match="engine"):
        monte_carlo(build, spec, replicates=2, engine="bogus")


def test_plan_is_cached_on_build(app_builds):
    """One plan per build and ``coarsen`` policy: repeated calls reuse
    it; another policy or another build of the same trace compiles its
    own."""
    trace, build = app_builds["token_ring"]
    plan = compiled_plan(build)
    assert compiled_plan(build) is plan
    flat = compiled_plan(build, coarsen="off")
    assert flat is not plan and compiled_plan(build, coarsen="off") is flat
    assert compiled_plan(build_graph(trace)) is not plan


# ---------------------------------------------------------------------------
# Analysis wiring: monte_carlo / sweep / influence engine equivalence
# ---------------------------------------------------------------------------


class TestAnalysisWiring:
    def test_monte_carlo_engines_and_jobs_agree(self, app_builds):
        _, build = app_builds["token_ring"]
        # "fallback" sends every LogNormal lane through the scalar sampler.
        for sig_name in ("expo", "fallback"):
            spec = PerturbationSpec(SIGNATURES[sig_name], seed=17)
            for mode in ("additive", "threshold"):
                ref = monte_carlo(build, spec, replicates=24, mode=mode, engine="graph")
                for kwargs in ({"engine": "compiled"}, {}, {"jobs": 2}):
                    got = monte_carlo(build, spec, replicates=24, mode=mode, **kwargs)
                    assert np.array_equal(ref.samples, got.samples), (sig_name, mode, kwargs)
                    assert ref.seeds == got.seeds

    def test_monte_carlo_compiled_returns_array_directly(self, app_builds):
        _, build = app_builds["token_ring"]
        dist = monte_carlo(build, PerturbationSpec(SIGNATURES["expo"]), replicates=8)
        assert isinstance(dist.samples, np.ndarray)
        assert dist.samples.dtype == np.float64
        assert dist.samples.shape == (8, build.graph.nprocs)

    def test_sweep_scales_engines_agree(self, app_builds):
        trace, build = app_builds["stencil1d"]
        sig = SIGNATURES["rich"]
        scales = [0.0, 0.25, 1.0, 2.0, -1.0]
        for base in (1.0, 2.0):
            spec = PerturbationSpec(sig, seed=5, scale=base)
            for mode in ("additive", "threshold"):
                got = sweep_scales(trace, spec, scales, mode=mode)
                for s, point in zip(scales, got.points):
                    ref = oracle.propagate(build, PerturbationSpec(sig, 5, base * s), mode=mode)
                    assert point.delays == tuple(ref.final_delay), (base, mode, s)

    def test_sweep_signatures_engines_agree(self, app_builds):
        trace, build = app_builds["token_ring"]
        sigs = [SIGNATURES["expo"], SIGNATURES["const"], SIGNATURES["fallback"]]
        got = sweep_signatures(trace, sigs, seed=3)
        par = sweep_signatures(trace, sigs, seed=3, jobs=2)
        for sig, b, c in zip(sigs, got.points, par.points):
            ref = oracle.propagate(build, PerturbationSpec(sig, seed=3))
            assert tuple(ref.final_delay) == b.delays == c.delays

    def test_sweep_rejects_unknown_engine(self, app_builds):
        trace, _ = app_builds["token_ring"]
        spec = PerturbationSpec(SIGNATURES["const"])
        with pytest.raises(ValueError, match="engine"):
            sweep_scales(trace, spec, [1.0], engine="bogus")

    def test_rank_influence_engines_agree(self, app_builds):
        _, build = app_builds["master_worker"]
        noise = Exponential(150.0)
        ref = [
            oracle.propagate(
                build, PerturbationSpec(MachineSignature(os_noise_by_rank={src: noise}), 3)
            ).final_delay
            for src in range(build.graph.nprocs)
        ]
        got = rank_influence(build, noise, seed=3)
        par = rank_influence(build, noise, seed=3, jobs=2)
        assert np.array_equal(np.array(ref), got.matrix)
        assert np.array_equal(np.array(ref), par.matrix)

    def test_streaming_build_config_still_respected(self, app_builds):
        # Compiled plans inherit whatever BuildConfig shaped the build.
        trace, _ = app_builds["allreduce_iter"]
        config = BuildConfig(collective_mode="butterfly")
        build = build_graph(trace, config)
        spec = PerturbationSpec(SIGNATURES["expo"], seed=2)
        ref = oracle.propagate(build, spec)
        got = compiled_plan(build).propagate_one(spec)
        assert got.final_delay == ref.final_delay


# ---------------------------------------------------------------------------
# Sampler caches: on-disk ziggurat tables, module-level classify cache
# ---------------------------------------------------------------------------


class TestTablesDiskCache:
    def test_store_and_reload_roundtrip(self, tmp_path, monkeypatch):
        from repro.core import sampler as C

        monkeypatch.setenv(C.TABLES_CACHE_ENV, str(tmp_path))
        path = C._tables_cache_path()
        assert path is not None and str(path).startswith(str(tmp_path))
        tables = _build_tables()
        C._store_tables(path, tables)
        assert path.exists()
        cand = C._load_table_candidates(path)
        assert cand is not None
        assert C._tables_match_candidates(tables, cand)
        # A harvest seeded with valid candidates must verify and adopt them.
        again = _build_tables(cand)
        for fam in ("exp", "norm"):
            assert np.array_equal(again[fam][0], tables[fam][0])
            assert np.array_equal(again[fam][1], tables[fam][1])

    def test_corrupt_or_stale_cache_never_changes_results(self, tmp_path):
        from repro.core import sampler as C

        path = tmp_path / "tables.json"
        path.write_text("{broken json")
        assert C._load_table_candidates(path) is None
        # Structurally valid but wrong values: verification must reject
        # the candidate and fall back to a fresh harvest.
        good = _build_tables()
        bad = {
            "exp": (good["exp"][0] * 1.5, good["exp"][1]),
            "norm": good["norm"],
        }
        harvested = _build_tables(bad)
        assert np.array_equal(harvested["exp"][0], good["exp"][0])
        assert np.array_equal(harvested["exp"][1], good["exp"][1])

    def test_shipped_tables_verify_without_a_harvest(self, tmp_path, monkeypatch):
        """An empty cache reads the table file shipped for this numpy:
        both families and both slow paths verify, nothing is harvested
        and nothing is written."""
        from repro.core import sampler as C

        if not C._shipped_tables_path().exists():
            pytest.skip(f"no table file shipped for numpy {np.__version__}")

        def no_harvest(*args):
            raise AssertionError("harvested although the shipped tables verify")

        monkeypatch.setenv(C.TABLES_CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(C, "_harvest_layers", no_harvest)
        monkeypatch.setattr(C, "_TABLES", None)
        with obs.observed() as session:
            tables = C._get_tables()
        assert session.metrics.counter("compiled.tables_cache.hits").value == 2
        assert all(tables[key] is not None for key in C._ZIGGURAT)
        assert C._tables_match_candidates(
            tables, C._load_table_candidates(C._shipped_tables_path())
        )
        assert not list(tmp_path.iterdir())

    def test_table_file_of_another_numpy_or_layout_is_ignored(self, tmp_path):
        import json

        from repro.core import sampler as C

        doc = C._tables_doc(_build_tables())
        old_layout = dict(doc, exp={k: v for k, v in doc["exp"].items() if k != "slow"})
        path = tmp_path / "tables.json"
        for bad in (
            dict(doc, numpy="0.0.0"),
            dict(doc, schema="repro-ziggurat-tables/1"),
            old_layout,
        ):
            path.write_text(json.dumps(bad))
            assert C._load_table_candidates(path) is None
        path.write_text(json.dumps(doc))
        assert C._load_table_candidates(path) is not None

    def test_cache_env_disables(self, monkeypatch):
        from repro.core import sampler as C

        for off in ("0", "off", "none"):
            monkeypatch.setenv(C.TABLES_CACHE_ENV, off)
            assert C._tables_cache_path() is None


class TestClassifyCache:
    def test_equal_valued_distributions_share_entries(self):
        from repro.core import sampler as C

        tables = C._get_tables()
        C._CLASSIFY_CACHE.clear()
        a = C._classify_cached(Exponential(123.0), tables)
        size = len(C._CLASSIFY_CACHE)
        b = C._classify_cached(Exponential(123.0), tables)  # distinct object
        assert len(C._CLASSIFY_CACHE) == size, "cache keyed by value, not id"
        assert a == b
        assert isinstance(a, C._VecDist) and a.family == "exp"

    def test_cache_bounded(self):
        from repro.core import sampler as C

        tables = C._get_tables()
        C._CLASSIFY_CACHE.clear()
        for i in range(C._CLASSIFY_CACHE_MAX + 10):
            C._classify_cached(Constant(float(i)), tables)
        assert len(C._CLASSIFY_CACHE) <= C._CLASSIFY_CACHE_MAX


# ---------------------------------------------------------------------------
# Measured signatures take the vector path (lane counters, forced rejects)
# ---------------------------------------------------------------------------


def _lane_counts(plan, sig, seeds):
    """``(raw, lanes, fallback_lanes)`` of one flat sampling call."""
    with obs.observed() as session:
        raw = plan.sample_raw_batch(sig, seeds)
    counter = session.metrics.counter
    return raw, counter("compiled.lanes").value, counter("compiled.fallback_lanes").value


def _scalar_raw(plan, sig, seeds):
    """The (R, n_edges) deltas the scalar ``PerturbationSpec`` draws."""
    raw = np.zeros((len(seeds), plan.n_edges))
    for r, seed in enumerate(seeds):
        spec = PerturbationSpec(sig, seed=seed)
        for e in plan.sampled_ids.tolist():
            raw[r, e] = spec.sample(plan.deltas[e], plan.edge_weight[e])
    return raw


def _os_edges(plan, sig, min_draws=1, max_draws=None):
    """Sampled OS edges whose interval-scaled draw count is in range."""
    out = []
    for e in plan.sampled_ids.tolist():
        if plan.deltas[e].kind == DeltaKind.OS:
            k = sig.os_draws(plan.edge_weight[e])
            if k >= min_draws and (max_draws is None or k <= max_draws):
                out.append(e)
    return out


def _force_stream(monkeypatch, plan, target, u0):
    """Make edge ``target``'s stream, in every replicate and in both the
    vector sampler and the scalar spec, the one whose first raw output
    is ``u0`` (the LCG predecessor of ``(hi=0, lo=u0)``, increment 1)."""
    from repro.core import sampler as S

    state = S._predecessor(u0)
    width = int(plan.uid_len[target])
    tuid = plan.uid_mat[target, :width]
    tdelta = plan.deltas[target]
    real_keys = S._stream_key_arrays

    def forced_keys(seeds_u64, kind_u64, uid_mat, uid_len):
        hi, lo, inc_hi, inc_lo = real_keys(seeds_u64, kind_u64, uid_mat, uid_len)
        lane = (
            (kind_u64 == plan.uid_kind[target])
            & (uid_len == width)
            & (uid_mat[:, :width] == tuid).all(axis=1)
        )
        assert lane.sum() <= 1
        hi[:, lane] = state >> 64
        lo[:, lane] = state & S._MASK64
        inc_hi[:, lane] = 0
        inc_lo[:, lane] = 1
        return hi, lo, inc_hi, inc_lo

    real_rng = PerturbationSpec._rng

    def forced_rng(self, delta):
        gen = real_rng(self, delta)
        return self._seeded(state, 1) if delta == tdelta else gen

    monkeypatch.setattr(S, "_stream_key_arrays", forced_keys)
    monkeypatch.setattr(PerturbationSpec, "_rng", forced_rng)


class TestMeasuredVectorPath:
    SEEDS = [0, 5, 9]

    @pytest.mark.parametrize("interpolate", [False, True])
    def test_only_k_ge_8_os_lanes_fall_back(self, app_builds, interpolate):
        # Power-of-two bootstrap tables never reject (Lemire threshold 0)
        # and interpolated draws cannot, so the only fallback lanes are
        # the interval-scaled OS edges with k >= 8 draws.
        _, build = app_builds["stencil1d"]
        plan = compiled_plan(build)
        mid_draws = 0
        for quantum in (10_000.0, 5_000.0):
            sig = MachineSignature(
                os_noise=_emp(1, 1024, 80.0, interpolate),
                latency=_emp(2, 256, 40.0, interpolate),
                per_byte=_emp(3, 64, 0.004, interpolate),
                os_noise_by_rank={2: _emp(4, 512, 120.0, interpolate)},
                os_quantum=quantum,
            )
            mid_draws += len(_os_edges(plan, sig, 2, 7))
            raw, lanes, fallback = _lane_counts(plan, sig, self.SEEDS)
            assert lanes == len(self.SEEDS) * plan.n_edges
            assert fallback == len(self.SEEDS) * len(_os_edges(plan, sig, 8))
            assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))
        assert mid_draws > 0, "k in 2..7 must be exercised"
        assert fallback > 0, "the 5000-cycle quantum must reach k >= 8"

    def test_measured_signature_is_fully_vectorized(self, app_builds):
        _, build = app_builds["allreduce_iter"]
        plan = compiled_plan(build)
        sig = MachineSignature(
            os_noise=_emp(1, 1024, 80.0),
            latency=_emp(2, 256, 40.0),
            per_byte=Scaled(_emp(3, 64, 0.004), 2.0),
            os_quantum=10_000.0,
        )
        raw, _, fallback = _lane_counts(plan, sig, self.SEEDS)
        assert fallback == 0
        assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))

    def test_lemire_rejection_falls_back_exactly(self, app_builds, monkeypatch):
        """Give one edge a stream whose first uint32 is 0, which the
        Lemire step rejects for any size that is not a power of two: the
        lane must take the scalar fallback and still match it."""
        _, build = app_builds["token_ring"]
        plan = CompiledPlan(build)
        sig = MachineSignature(latency=_emp(2, 1000, 40.0))  # threshold 296
        target = next(
            e for e in plan.sampled_ids.tolist() if plan.deltas[e].kind != DeltaKind.OS
        )
        _force_stream(monkeypatch, plan, target, 0x12345678_00000000)
        raw, _, fallback = _lane_counts(plan, sig, self.SEEDS)
        assert fallback == len(self.SEEDS)  # the forced lane, once per replicate
        assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))
        spec = PerturbationSpec(sig, seed=self.SEEDS[0])
        assert plan.propagate_one(spec).edge_delta == oracle.propagate(build, spec).edge_delta

    def test_failed_self_check_disables_only_its_family(self, app_builds, monkeypatch):
        from repro.core import sampler as S

        monkeypatch.setattr(S, "_check_interpolated", lambda *args: False)
        tables = S._build_tables()
        assert tables["emp"] and tables["multi"] and not tables["emp_interp"]
        monkeypatch.setattr(S, "_TABLES", tables)
        _, build = app_builds["token_ring"]
        plan = CompiledPlan(build)
        # Bootstrap OS noise stays vectorized; the interpolated latency,
        # drawn by every other sampled edge, falls back.
        sig = MachineSignature(os_noise=_emp(1, 1024, 80.0), latency=_emp(6, 256, 40.0, True))
        raw, _, fallback = _lane_counts(plan, sig, self.SEEDS)
        n_lat = len(plan.sampled_ids) - len(_os_edges(plan, sig))
        assert 0 < n_lat < len(plan.sampled_ids)
        assert fallback == len(self.SEEDS) * n_lat
        assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))


# ---------------------------------------------------------------------------
# Ziggurat misses finish in lanes (forced wedge, redraw and tail cases)
# ---------------------------------------------------------------------------


def _ziggurat_output(fam, case, seed=0):
    """A raw output that misses ``fam``'s ziggurat fast path, found by
    asking the real ``Generator`` how many raw outputs its draw takes:
    a wedge accept takes 2, a wedge reject then a fast redraw 3, a
    reject then a second miss 4 or more; ``tail`` misses the base layer."""
    from repro.core import sampler as S

    w, k = S._get_tables()[fam]
    top = 1 << S._PAYLOAD_BITS[fam]
    prober = S._Prober()
    draw = prober.gen.standard_exponential if fam == "exp" else prober.gen.standard_normal
    layers = [i for i in range(1, 256) if int(k[i]) < top]
    want = {"accept": lambda n: n == 2, "reject": lambda n: n == 3,
            "second miss": lambda n: n >= 4, "tail": lambda n: n >= 2}[case]
    rng = np.random.default_rng(seed)
    found = None
    for _ in range(20_000):
        idx = 0 if case == "tail" else layers[int(rng.integers(len(layers)))]
        pay = int(rng.integers(int(k[idx]), top))
        if fam == "exp":
            u0 = ((pay << 8) | idx) << 3
        else:
            u0 = (pay << 9) | (int(rng.integers(2)) << 8) | idx
        if not want(prober.probe(u0, draw, maxn=32)[1]):
            continue
        if fam != "exp" or case != "tail":
            return u0
        # Prefer a tail whose log1p numpy's vector loop rounds unlike
        # libm (where that loop differs at all): only libm's is exact.
        found = found or u0
        prober.set_state(S._predecessor(u0), 1)
        d = (int(prober.bg.random_raw(2)[1]) >> 11) * 2.0**-53  # the tail's double
        r = S._derive_slow("exp", w)[1]
        if r - float(np.log1p(np.full(8, -d))[0]) != r - math.log1p(-d):
            return u0
    assert found is not None, f"no {fam} {case} output found"
    return found


def _templated_edge(plan, kind):
    """A sampled edge of ``kind``, inside a templated instance when the
    plan coarsened (so the template sampler draws it, tile > 1)."""
    ids = plan.coarse.run_edge_ids[1] if plan.coarse is not None else plan.sampled_ids
    return next(e for e in ids.tolist() if plan.deltas[e].kind == kind)


class TestZigguratMisses:
    SEEDS = [0, 5, 9]

    @pytest.mark.parametrize("coarsen", ["off", "on"])
    @pytest.mark.parametrize(
        "fam,case",
        [("exp", "accept"), ("exp", "reject"), ("exp", "second miss"), ("exp", "tail"),
         ("norm", "accept"), ("norm", "tail")],
    )
    def test_forced_miss_finishes_in_lanes(self, app_builds, monkeypatch, coarsen, fam, case):
        _, build = app_builds["token_ring"]
        plan = CompiledPlan(build, coarsen=coarsen)
        assert (plan.coarse is not None) == (coarsen == "on")
        latency = Exponential(40.0) if fam == "exp" else Normal(75.0, 5.0)
        sig = MachineSignature(os_noise=Constant(100.0), latency=latency)
        target = _templated_edge(plan, DeltaKind.LATENCY)
        _force_stream(monkeypatch, plan, target, _ziggurat_output(fam, case))
        raw, _, fallback = _lane_counts(plan, sig, self.SEEDS)
        assert fallback == 0
        assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))

    @pytest.mark.parametrize("coarsen", ["off", "on"])
    @pytest.mark.parametrize("case", ["reject", "second miss"])
    def test_later_draws_read_the_advanced_stream(self, app_builds, monkeypatch, coarsen, case):
        """A TRANSFER_OS edge draws latency, per-byte and OS noise from
        one stream: after the forced latency miss, the other two draws
        must start where numpy's loop left the stream."""
        _, build = app_builds["token_ring"]
        plan = CompiledPlan(build, coarsen=coarsen)
        sig = MachineSignature(
            os_noise=Exponential(80.0), latency=Exponential(40.0), per_byte=Exponential(0.004)
        )
        target = _templated_edge(plan, DeltaKind.TRANSFER_OS)
        assert plan.deltas[target].nbytes > 0
        _force_stream(monkeypatch, plan, target, _ziggurat_output("exp", case))
        raw, _, fallback = _lane_counts(plan, sig, self.SEEDS)
        assert fallback == 0
        assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))

    def test_failed_slow_path_check_disables_only_the_slow_path(self, app_builds, monkeypatch):
        """Without verified slow-path constants every miss falls back, as
        counted by the real Generator: the lanes whose one draw takes
        more than one raw output."""
        from repro.core import sampler as S

        monkeypatch.setattr(S, "_check_slow", lambda *args: False)
        tables = S._build_tables()
        assert tables["exp"] is not None and tables["norm"] is not None
        assert tables["exp_slow"] is None and tables["norm_slow"] is None
        monkeypatch.setattr(S, "_TABLES", tables)
        _, build = app_builds["token_ring"]
        plan = CompiledPlan(build)
        sig = MachineSignature(os_noise=Constant(100.0), latency=Exponential(40.0))
        target = _templated_edge(plan, DeltaKind.LATENCY)
        _force_stream(monkeypatch, plan, target, _ziggurat_output("exp", "tail"))
        misses = 0
        for seed in self.SEEDS:
            spec = PerturbationSpec(sig, seed=seed)
            for e in plan.sampled_ids.tolist():
                if plan.deltas[e].kind == DeltaKind.OS:
                    continue  # a Constant: no draw
                gen = spec._rng(plan.deltas[e])
                gen.standard_exponential()
                after = gen.bit_generator.state["state"]["state"]
                gen = spec._rng(plan.deltas[e])
                gen.bit_generator.random_raw()
                misses += after != gen.bit_generator.state["state"]["state"]
        raw, _, fallback = _lane_counts(plan, sig, self.SEEDS)
        assert fallback == misses >= len(self.SEEDS)
        assert np.array_equal(raw, _scalar_raw(plan, sig, self.SEEDS))


class TestScaledMeasuredSignature:
    @pytest.fixture(scope="class")
    def measured(self, tmp_path_factory):
        from repro.cli import main_microbench

        path = tmp_path_factory.mktemp("sig") / "sig.json"
        assert main_microbench(
            ["--machine", "noisy", "--out", str(path), "--seed", "0", "--quiet"]
        ) == 0
        return path

    def test_scaled_round_trips(self, measured, tmp_path):
        scaled = MachineSignature.load(measured).scaled(2.0)
        assert isinstance(scaled.os_noise, Scaled)
        assert isinstance(scaled.os_noise.base, Empirical)
        out = tmp_path / "scaled.json"
        scaled.save(out)
        assert MachineSignature.load(out) == scaled

    def test_scaled_lanes_vectorized_and_identical(self, measured, app_builds):
        sig = MachineSignature.load(measured).scaled(2.0)
        _, build = app_builds["allreduce_iter"]
        plan = compiled_plan(build)
        # Every non-OS lane draws through the Scaled(Empirical) ops chain.
        raw, _, fallback = _lane_counts(plan, sig, [1, 2])
        assert fallback <= 2 * len(_os_edges(plan, sig, 8))
        assert np.array_equal(raw, _scalar_raw(plan, sig, [1, 2]))
        spec = PerturbationSpec(sig, seed=4)
        ref = monte_carlo(build, spec, replicates=6, engine="graph")
        got = monte_carlo(build, spec, replicates=6)
        assert np.array_equal(ref.samples, got.samples)


class TestScalarOnlyFamilies:
    """OS noise of a family with no vector program (LogNormal, Gamma,
    TruncatedNormal) is keyed in lanes and drawn by the scalar
    fallback: every value equals the scalar spec's, flat and coarse."""

    @pytest.mark.parametrize("coarsen", ["off", "on"])
    @pytest.mark.parametrize(
        "os_noise",
        [LogNormal(3.0, 0.5), Gamma(2.0, 40.0), TruncatedNormal(60.0, 30.0)],
        ids=["lognormal", "gamma", "truncnormal"],
    )
    def test_equal_to_per_lane_scalar_samples(self, app_builds, coarsen, os_noise):
        _, build = app_builds["token_ring"]
        plan = CompiledPlan(build, coarsen=coarsen)
        assert (plan.coarse is not None) == (coarsen == "on")
        sig = MachineSignature(os_noise=os_noise, latency=Exponential(40.0))
        seeds = [0, 5, 2**40 + 3]
        raw, _, fallback = _lane_counts(plan, sig, seeds)
        assert fallback > 0
        assert np.array_equal(raw, _scalar_raw(plan, sig, seeds))


# ---------------------------------------------------------------------------
# Draw programs are bound once per distinct delta key
# ---------------------------------------------------------------------------


def _per_edge_fallback(plan, sig, seeds) -> int:
    """Fallback lanes of one flat sampling call under a per-edge bind:
    one program per sampled edge, edges grouped by program shape, each
    group evaluated from its edges' streams (the reference the keyed
    bind must match; factors do not decide a lane's path)."""
    sampler = _Sampler(plan, sig)
    ids = plan.sampled_ids
    by_shape: dict = {}
    unsupported = 0
    for e, delta, w in zip(ids.tolist(), plan.deltas.take(ids), plan.edge_weight[ids].tolist()):
        prog = _edge_program(sig, delta, w, sampler.classify, sampler.max_draws)
        if delta.uid and prog is not None:
            by_shape.setdefault(tuple((d, k) for _, d, k in prog), []).append(e)
        else:
            unsupported += 1
    fallback = unsupported * len(seeds)
    for shape, members in by_shape.items():
        eids = np.array(members)
        steps = [
            ("const", np.zeros(len(eids))) if isinstance(d, _ConstDist) else ("draw", d, None, k)
            for d, k in shape
        ]
        keys = _stream_key_arrays(
            _seeds_u64(seeds), plan.uid_kind[eids], plan.uid_mat[eids], plan.uid_len[eids]
        )
        _, ok = _eval_group(steps, keys, sampler.tables)
        fallback += 0 if ok is None else int((~ok).sum())
    return fallback


_NBYTES = st.sampled_from([0, 1, 1 << 20])
_bind_plans = st.tuples(
    st.lists(
        st.one_of(
            st.tuples(st.just("compute"), st.integers(100, 3000)),
            st.tuples(st.sampled_from(["ring", "xchg", "nb", "allreduce", "fanin"]), _NBYTES),
            st.tuples(st.just("bcast"), st.integers(0, 4), _NBYTES),
            st.tuples(st.just("barrier")),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(2, 5),
)
_dists = st.one_of(
    st.builds(Constant, st.floats(0.0, 200.0)),
    st.builds(Exponential, st.floats(1.0, 200.0)),
    st.builds(Normal, st.floats(-50.0, 200.0), st.floats(0.1, 50.0)),
    st.builds(lambda seed, n: _emp(seed, n, 80.0), st.integers(0, 99), st.integers(2, 300)),
)
_bind_signatures = st.builds(
    MachineSignature,
    os_noise=_dists,
    latency=_dists,
    per_byte=st.one_of(
        st.builds(Constant, st.floats(0.0, 0.01)), st.builds(Exponential, st.floats(1e-4, 0.01))
    ),
    os_noise_by_rank=st.dictionaries(st.integers(0, 4), _dists, max_size=2),
    latency_by_link=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), _dists, max_size=2
    ),
    # 300 cycles: OS edges of the drawn compute rounds take 1 to 50 draws,
    # so k crosses the vectorized limit of 7.
    os_quantum=st.sampled_from([0.0, 300.0]),
)


@given(case=_bind_plans, sig=_bind_signatures)
# Two messages on one link, with and without bytes; OS edges of 1 to
# 50 draws.
@example(
    case=([("ring", 0), ("compute", 3000), ("ring", 1)], 3),
    sig=MachineSignature(
        os_noise=Exponential(80.0),
        latency=Exponential(40.0),
        per_byte=Exponential(0.004),
        os_quantum=300.0,
    ),
)
# One distribution for δ_os, δ_λ and δ_t: a TRANSFER_OS edge of 0 bytes
# ([lat, os]) and a TRANSFER edge with bytes ([lat, bytes]) classify to
# the same (dist, draws) sequence, as do a 2-rank allreduce of 0 bytes
# and a TRANSFER edge; only the δ_t step takes the nbytes factor.
@example(
    case=([("nb", 0), ("ring", 1 << 20), ("allreduce", 0)], 2),
    sig=MachineSignature(os_noise=Constant(2.0), latency=Constant(2.0), per_byte=Constant(2.0)),
)
@example(
    case=([("nb", 0), ("ring", 1 << 20), ("allreduce", 0)], 2),
    sig=MachineSignature(
        os_noise=Exponential(3.0), latency=Exponential(3.0), per_byte=Exponential(3.0)
    ),
)
@settings(max_examples=30, deadline=None)
def test_keyed_bind_matches_per_edge_sampling(case, sig):
    """Drawn programs under drawn signatures: the keyed bind samples
    every edge bit for bit as the scalar spec does, flat and coarse,
    with the per-edge bind's fallback-lane count, and a uid-less
    sampled edge raises the scalar engine's error."""
    rounds, p = case
    build = build_graph(run(plan_program(rounds), nprocs=p, seed=1).trace)
    seeds = [0, 7]
    flat = CompiledPlan(build, coarsen="off")
    expected = _scalar_raw(flat, sig, seeds).view(np.int64)
    fallback = _per_edge_fallback(flat, sig, seeds)
    for coarsen in ("off", "on"):
        plan = CompiledPlan(build, coarsen=coarsen)
        raw, _, got = _lane_counts(plan, sig, seeds)
        assert np.array_equal(raw.view(np.int64), expected), coarsen
        assert got == fallback, coarsen
        uidless = CompiledPlan(build, coarsen=coarsen)
        e = int(uidless.sampled_ids[len(uidless.sampled_ids) // 2])
        uidless.uid_len[e] = 0
        with pytest.raises(ValueError) as scalar:
            PerturbationSpec(sig, seed=seeds[0]).sample(uidless.deltas[e])
        with pytest.raises(ValueError) as compiled:
            uidless.sample_raw_batch(sig, seeds)
        assert str(compiled.value) == str(scalar.value)


def test_bind_expands_one_program_per_delta_key(monkeypatch):
    """Structural guard: binding the 1000-task master/worker build
    expands one draw program per distinct delta key, not one per
    sampled edge."""
    from repro.core import sampler as S

    factory, params_cls = ALL_APPS["master_worker"]
    build = build_graph(run(factory(params_cls(tasks=1000)), nprocs=4, seed=1).trace)
    plan = CompiledPlan(build, coarsen="off")
    calls = []
    real = S._edge_program
    monkeypatch.setattr(S, "_edge_program", lambda *a: calls.append(a) or real(*a))
    with obs.observed() as session:
        plan.bind(SIGNATURES["expo"])
    keys = {
        (d.kind, d.rank, d.src, d.dst, d.nbytes > 0, d.rounds, bool(d.uid))
        for d in plan.deltas.take(plan.sampled_ids)
    }
    assert len(plan.sampled_ids) > 10_000
    assert len(calls) == len(keys) < 100
    (bind,) = [s for s in session.spans if s.name == "compiled.bind"]
    assert bind.counters["compiled.bind_programs"] == len(keys)
