"""Tests for the on-disk checkpoint store and analysis resume paths.

The property under test everywhere: a resumed analysis is **bit-
identical** to an uninterrupted one, because each shard is a pure
function of its key and JSON round-trips floats exactly.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro import obs
from repro.apps.stencil1d import StencilParams, stencil1d
from repro.core import (
    BuildConfig,
    PerturbationSpec,
    build_graph,
    monte_carlo,
    rank_influence,
    sweep_scales,
    sweep_signatures,
)
from repro.core.checkpoint import (
    CheckpointStore,
    ShardKey,
    build_digest,
    digest_of,
    resolve_rows,
    signature_digest,
    trace_digest,
)
from repro.mpisim import run
from repro.noise import Exponential, MachineSignature
from repro.testing import corrupt_checkpoints
from repro.trace.reader import MemoryTrace

pytestmark = pytest.mark.usefixtures("no_obs_session")


@pytest.fixture
def no_obs_session():
    obs.stop()
    yield
    obs.stop()


@pytest.fixture(scope="module")
def ring_build(ring_trace):
    return build_graph(ring_trace)


def spec(seed=0, scale=1.0, mean=100.0):
    return PerturbationSpec(
        MachineSignature(os_noise=Exponential(mean), latency=Exponential(40.0)),
        seed=seed,
        scale=scale,
    )


def retagged(trace, shift=100):
    """``trace`` with every message tag shifted by ``shift``."""

    def shifted(ev):
        tag = ev.tag + shift if ev.tag >= 0 else ev.tag
        recv_tag = ev.recv_tag + shift if ev.recv_tag >= 0 else ev.recv_tag
        return dataclasses.replace(ev, tag=tag, recv_tag=recv_tag)

    events = [[shifted(ev) for ev in evs] for evs in trace.load_all()]
    return MemoryTrace(events, program=trace.meta(0).program)


class PlantedPlan:
    """Unpickling this creates ``marker``: it shows whether anything
    ever unpickles a file found in a checkpoint directory."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


def key(seed=0, **kw):
    base = dict(kind="mc", seed=seed, signature="sig0", scale=1.0, mode="additive",
                engine="compiled", context="ctx0")
    base.update(kw)
    return ShardKey(**base)


class TestDigests:
    def test_digest_is_stable_and_order_free(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})
        assert digest_of([1.5]) != digest_of([1.25])

    def test_signature_digest_distinguishes_signatures(self):
        a = MachineSignature(os_noise=Exponential(100.0))
        b = MachineSignature(os_noise=Exponential(101.0))
        assert signature_digest(a) != signature_digest(b)
        assert signature_digest(a) == signature_digest(MachineSignature(os_noise=Exponential(100.0)))

    def test_build_digest_cached_on_build(self, ring_build):
        d = build_digest(ring_build)
        assert d == build_digest(ring_build)
        assert ring_build.__dict__["_checkpoint_digest"] == d

    def test_build_digest_covers_tags(self, ring_trace, ring_build):
        """Tags key each message's random stream: a retagged trace has
        the same counts, weights and delta kinds but another digest."""
        assert build_digest(build_graph(retagged(ring_trace))) != build_digest(ring_build)

    def test_trace_digest(self, ring_trace):
        assert trace_digest(ring_trace) == trace_digest(ring_trace)

    def test_trace_digest_covers_events_and_config(self, ring_trace):
        assert trace_digest(ring_trace) == trace_digest(ring_trace, BuildConfig())
        assert trace_digest(ring_trace) != trace_digest(ring_trace, BuildConfig(eager_threshold=0))
        events = ring_trace.load_all()
        ev = events[1][2]
        events[1][2] = ev.with_times(ev.t_start, ev.t_end + 1.0)
        retimed = MemoryTrace(events, program=ring_trace.meta(0).program)
        assert trace_digest(retimed) != trace_digest(ring_trace)


class TestShardKey:
    def test_every_field_changes_the_filename(self):
        base = key()
        for change in (
            dict(kind="sweep_scales"), dict(seed=1), dict(signature="sigX"),
            dict(scale=2.0), dict(mode="threshold"), dict(engine="graph"),
            dict(context="ctxX"),
        ):
            assert key(**change).filename != base.filename

    def test_filename_is_a_valid_shard_name(self):
        assert key(seed=17).filename.startswith("mc-17-")
        assert key().filename.endswith(".json")


class TestStore:
    def test_roundtrip_is_exact(self, tmp_path):
        store = CheckpointStore(tmp_path)
        row = [0.1 + 0.2, 1e-308, 12345678.875, 0.0]
        store.put(key(), row)
        assert store.get(key()) == row  # bit-exact float round-trip

    def test_missing_counts_as_miss(self, tmp_path):
        with obs.observed("t") as session:
            assert CheckpointStore(tmp_path).get(key()) is None
        assert session.metrics.counter("checkpoint.misses").value == 1

    def test_coerce(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert CheckpointStore.coerce(None) is None
        assert CheckpointStore.coerce(store) is store
        assert CheckpointStore.coerce(str(tmp_path)).root == store.root

    def test_corrupt_shard_reads_as_missing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put(key(), [1.0, 2.0])
        assert corrupt_checkpoints(tmp_path) != []
        with obs.observed("t") as session:
            assert store.get(key()) is None
        assert session.metrics.counter("checkpoint.corrupt").value == 1

    def test_key_mismatch_reads_as_missing(self, tmp_path):
        # A shard whose embedded key disagrees with the requested key
        # (e.g. a renamed file) must not satisfy the request.
        store = CheckpointStore(tmp_path)
        path = store.put(key(seed=1), [1.0])
        path.rename(store.path_for(key(seed=2)))
        assert store.get(key(seed=2)) is None

    def test_tampered_result_fails_digest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.put(key(), [1.0, 2.0])
        record = json.loads(path.read_text())
        record["result"] = [9.0, 9.0]
        path.write_text(json.dumps(record))
        assert store.get(key()) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(5):
            store.put(key(seed=i), [float(i)])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            key(seed=i).filename for i in range(5)
        )


class TestResolveRows:
    def test_no_store_computes_everything(self):
        calls = []

        def compute(missing):
            calls.append(list(missing))
            return [[float(i)] for i in missing]

        rows = resolve_rows(None, [key(seed=i) for i in range(3)], compute)
        assert rows == [[0.0], [1.0], [2.0]]
        assert calls == [[0, 1, 2]]

    def test_resume_computes_only_missing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [key(seed=i) for i in range(4)]
        store.put(keys[1], [10.0])
        store.put(keys[3], [30.0])
        calls = []

        def compute(missing):
            calls.append(list(missing))
            return [[float(i)] for i in missing]

        with obs.observed("t") as session:
            rows = resolve_rows(store, keys, compute, resume=True)
        assert rows == [[0.0], [10.0], [2.0], [30.0]]
        assert calls == [[0, 2]]
        assert session.metrics.counter("checkpoint.hits").value == 2
        assert session.metrics.counter("checkpoint.misses").value == 2

    def test_without_resume_nothing_is_read(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [key(seed=i) for i in range(2)]
        store.put(keys[0], [99.0])  # stale-looking shard must be ignored

        rows = resolve_rows(store, keys, lambda m: [[float(i)] for i in m], resume=False)
        assert rows == [[0.0], [1.0]]
        assert store.get(keys[0]) == [0.0]  # and overwritten

    def test_generator_compute_checkpoints_incrementally(self, tmp_path):
        """A kill mid-compute must not erase rows already produced —
        the CLI chaos scenario relies on this."""
        store = CheckpointStore(tmp_path)
        keys = [key(seed=i) for i in range(4)]

        def compute(missing):
            for i in missing:
                if i == 2:
                    raise RuntimeError("killed mid-flight")
                yield [float(i)]

        with pytest.raises(RuntimeError):
            resolve_rows(store, keys, compute, resume=False)
        assert store.get(keys[0]) == [0.0]
        assert store.get(keys[1]) == [1.0]
        assert store.get(keys[2]) is None

    def test_unstorable_rows_not_persisted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [key(seed=i) for i in range(3)]
        rows = resolve_rows(
            store, keys, lambda m: [[1.0], None, [float("nan")]], resume=False
        )
        assert rows[1] is None
        assert store.get(keys[0]) == [1.0]
        assert store.get(keys[1]) is None  # None row: nothing written
        assert store.get(keys[2]) is None  # NaN row: nothing written


class TestAnalysisResume:
    """End-to-end: every checkpointed analysis resumes bit-identically."""

    def test_monte_carlo_resume_bit_identical(self, ring_build, tmp_path):
        s = spec(seed=42)
        clean = monte_carlo(ring_build, s, replicates=6)
        first = monte_carlo(ring_build, s, replicates=6, checkpoint=tmp_path)
        with obs.observed("t") as session:
            resumed = monte_carlo(
                ring_build, s, replicates=6, checkpoint=tmp_path, resume=True
            )
        assert np.array_equal(clean.samples, first.samples)
        assert np.array_equal(clean.samples, resumed.samples)
        # Fully cached: the resumed run recomputed nothing.
        assert session.metrics.counter("checkpoint.hits").value == 6
        assert session.metrics.counter("mc.replicates").value == 0

    def test_monte_carlo_engines_share_no_shards(self, ring_build, tmp_path):
        s = spec(seed=7)
        compiled = monte_carlo(ring_build, s, replicates=3, checkpoint=tmp_path)
        graph = monte_carlo(
            ring_build, s, replicates=3, engine="graph", checkpoint=tmp_path, resume=True
        )
        # Same bits, but keyed separately (engine is part of the key).
        assert np.array_equal(compiled.samples, graph.samples)
        assert len(list(tmp_path.glob("mc-*.json"))) == 6

    def test_corrupt_shard_recomputed_on_resume(self, ring_build, tmp_path):
        s = spec(seed=11)
        clean = monte_carlo(ring_build, s, replicates=4, checkpoint=tmp_path)
        corrupt_checkpoints(tmp_path, n=2)
        with obs.observed("t") as session:
            resumed = monte_carlo(
                ring_build, s, replicates=4, checkpoint=tmp_path, resume=True
            )
        assert np.array_equal(clean.samples, resumed.samples)
        assert session.metrics.counter("checkpoint.corrupt").value == 2
        assert session.metrics.counter("checkpoint.hits").value == 2
        # The damaged shards were rewritten; a second resume is all hits.
        with obs.observed("t2") as session2:
            monte_carlo(ring_build, s, replicates=4, checkpoint=tmp_path, resume=True)
        assert session2.metrics.counter("checkpoint.hits").value == 4

    @pytest.mark.parametrize("engine", ["compiled", "streaming"])
    def test_sweep_scales_resume_bit_identical(self, ring_trace, tmp_path, engine):
        scales = [0.5, 1.0, 2.0]
        clean = sweep_scales(ring_trace, spec(seed=9), scales, engine=engine)
        sweep_scales(ring_trace, spec(seed=9), scales, engine=engine, checkpoint=tmp_path)
        resumed = sweep_scales(
            ring_trace, spec(seed=9), scales, engine=engine,
            checkpoint=tmp_path, resume=True,
        )
        for a, b in zip(clean.points, resumed.points):
            assert a.delays == b.delays

    def test_streaming_resume_over_another_trace_is_fresh(self, tmp_path):
        """Streaming shards key on every event and on the BuildConfig: a
        resume over a different trace of the same program (or the same
        trace under another config) recomputes instead of returning the
        old rows."""
        short, long = (
            run(stencil1d(StencilParams(iterations=it)), nprocs=4, seed=1).trace
            for it in (3, 12)
        )
        eager = BuildConfig(eager_threshold=64)
        scales = [0.5, 1.0]
        sweep_scales(short, spec(seed=4), scales, engine="streaming", checkpoint=tmp_path)
        for trace, config in ((long, None), (short, eager)):
            clean = sweep_scales(trace, spec(seed=4), scales, engine="streaming", config=config)
            resumed = sweep_scales(
                trace, spec(seed=4), scales, engine="streaming", config=config,
                checkpoint=tmp_path, resume=True,
            )
            assert [p.delays for p in resumed.points] == [p.delays for p in clean.points]

    def test_monte_carlo_resume_over_retagged_build_is_fresh(
        self, ring_trace, ring_build, tmp_path
    ):
        """A build that differs from the checkpointed one only in its
        tags gets its own rows on resume, not the stored ones."""
        s = spec(seed=5)
        original = monte_carlo(ring_build, s, replicates=3, checkpoint=tmp_path)
        other = build_graph(retagged(ring_trace))
        clean = monte_carlo(other, s, replicates=3)
        assert not np.array_equal(clean.samples, original.samples)
        resumed = monte_carlo(other, s, replicates=3, checkpoint=tmp_path, resume=True)
        assert np.array_equal(resumed.samples, clean.samples)

    def test_planted_plan_blob_is_never_loaded(self, ring_trace, tmp_path):
        """A checkpoint directory holds result shards only: a pickled
        plan planted where a plan cache would look is never read, and
        nothing but ``*.json`` shards is written."""
        build = build_graph(ring_trace)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        marker = tmp_path / "unpickled"
        planted = ckpt / f"plan-{build_digest(build)}-auto.pkl"
        planted.write_bytes(pickle.dumps(PlantedPlan(marker)))
        s = spec(seed=8)
        clean = monte_carlo(build_graph(ring_trace), s, replicates=4)
        for resume in (False, True):
            got = monte_carlo(build, s, replicates=4, checkpoint=ckpt, resume=resume)
            assert np.array_equal(got.samples, clean.samples)
        assert not marker.exists()
        written = {p.name for p in ckpt.iterdir()} - {planted.name}
        assert written and all(name.endswith(".json") for name in written)

    def test_sweep_signatures_resume_bit_identical(self, ring_trace, tmp_path):
        sigs = [
            MachineSignature(os_noise=Exponential(50.0), name="quiet"),
            MachineSignature(os_noise=Exponential(200.0), name="noisy"),
        ]
        clean = sweep_signatures(ring_trace, sigs, seed=3)
        sweep_signatures(ring_trace, sigs, seed=3, checkpoint=tmp_path)
        resumed = sweep_signatures(ring_trace, sigs, seed=3, checkpoint=tmp_path, resume=True)
        for a, b in zip(clean.points, resumed.points):
            assert a.delays == b.delays

    def test_rank_influence_resume_bit_identical(self, ring_build, tmp_path):
        clean = rank_influence(ring_build, Exponential(100.0), seed=1)
        rank_influence(ring_build, Exponential(100.0), seed=1, checkpoint=tmp_path)
        resumed = rank_influence(
            ring_build, Exponential(100.0), seed=1, checkpoint=tmp_path, resume=True
        )
        assert np.array_equal(clean.matrix, resumed.matrix)
        assert len(list(tmp_path.glob("influence-*.json"))) == ring_build.graph.nprocs

    def test_parallel_resume_matches_serial(self, ring_build, tmp_path):
        """Checkpointing composes with the pool backend: shards written
        by a parallel run satisfy a serial resume, bit for bit."""
        s = spec(seed=21)
        clean = monte_carlo(ring_build, s, replicates=8, jobs=0)
        monte_carlo(ring_build, s, replicates=8, jobs=2, checkpoint=tmp_path)
        resumed = monte_carlo(
            ring_build, s, replicates=8, jobs=0, checkpoint=tmp_path, resume=True
        )
        assert np.array_equal(clean.samples, resumed.samples)
