"""Tests for the execution-backend abstraction (parallel replicates).

The load-bearing property is at the top: a backend only changes *where*
each replicate runs, never *what* it computes, so parallel results are
bit-for-bit identical to serial ones for the same base seed.
"""

import warnings

import numpy as np
import pytest

from repro.core import (
    PerturbationSpec,
    ProcessPoolBackend,
    SerialBackend,
    build_graph,
    compiled_plan,
    map_replicate_batches,
    monte_carlo,
    rank_influence,
    replicate_items,
    resolve_backend,
    sweep_scales,
)
from repro.core.montecarlo import DelayDistribution
from repro.core.parallel import available_cpus, chunked, default_chunk_size
from repro.noise import Exponential, MachineSignature


@pytest.fixture(scope="module")
def ring_build(ring_trace):
    return build_graph(ring_trace)


def spec(seed=0, scale=1.0, mean=100.0):
    return PerturbationSpec(
        MachineSignature(os_noise=Exponential(mean), latency=Exponential(40.0)),
        seed=seed,
        scale=scale,
    )


class TestBackendSelection:
    def test_jobs_zero_is_serial(self):
        assert isinstance(resolve_backend(0), SerialBackend)

    def test_jobs_one_is_serial(self):
        # A one-worker pool is pure pickling overhead.
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_jobs_none_is_auto(self):
        backend = resolve_backend(None)
        cores = available_cpus()
        if cores >= 2:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.jobs == cores
        else:
            assert isinstance(backend, SerialBackend)

    def test_available_cpus_respects_affinity(self):
        # Containers/cgroups often pin fewer cpus than os.cpu_count()
        # reports; auto sizing must follow the schedulable set.
        import os

        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux
            assert available_cpus() == (os.cpu_count() or 1)

    def test_jobs_n_is_pool(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(-1)

    def test_pool_needs_two_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(1)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(2, chunk_size=0)


class TestChunking:
    def test_chunks_concatenate_in_order(self):
        items = list(range(10))
        chunks = chunked(items, 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [x for c in chunks for x in c] == items

    def test_single_chunk_when_size_covers_all(self):
        assert chunked([1, 2], 5) == [[1, 2]]

    def test_empty_items(self):
        assert chunked([], 4) == []

    def test_bad_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)

    def test_default_chunk_size_targets_four_per_worker(self):
        assert default_chunk_size(160, 4) == 10

    def test_default_chunk_size_fewer_items_than_jobs(self):
        # replicates < jobs degenerates to one item per chunk.
        assert default_chunk_size(3, 8) == 1

    def test_default_chunk_size_no_items(self):
        assert default_chunk_size(0, 4) == 1


class TestReplicateItems:
    def test_schedule_is_consecutive_seeds(self):
        s = spec(seed=7)
        items = replicate_items(s, 3)
        assert [seed for seed, _ in items] == [7, 8, 9]
        assert all(sp is s for _, sp in items)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            replicate_items(spec(), 0)


class TestSerialParallelEquality:
    """The determinism guarantee: bitwise-equal results for any jobs."""

    def test_monte_carlo_samples_bitwise_equal(self, ring_build):
        s = spec(seed=42)
        serial = monte_carlo(ring_build, s, replicates=12, jobs=0)
        parallel = monte_carlo(ring_build, s, replicates=12, jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)
        assert serial.seeds == parallel.seeds

    def test_replicates_fewer_than_jobs(self, ring_build):
        # Chunking edge case: 2 replicates over a 4-worker pool.
        s = spec(seed=5)
        serial = monte_carlo(ring_build, s, replicates=2, jobs=0)
        parallel = monte_carlo(ring_build, s, replicates=2, jobs=4)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_explicit_chunk_sizes_equal(self, ring_build):
        s = spec(seed=3)
        reference = monte_carlo(ring_build, s, replicates=7, jobs=0)
        for size in (1, 3, 7):
            dist = monte_carlo(ring_build, s, replicates=7, jobs=2, chunk_size=size)
            assert np.array_equal(reference.samples, dist.samples)

    def test_sweep_scales_equal(self, ring_trace):
        scales = [0.5, 1.0, 2.0]
        serial = sweep_scales(ring_trace, spec(seed=9), scales, jobs=0)
        parallel = sweep_scales(ring_trace, spec(seed=9), scales, jobs=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.delays == b.delays
            assert a.max_delay == b.max_delay

    def test_rank_influence_equal(self, ring_build):
        serial = rank_influence(ring_build, Exponential(100.0), seed=1, jobs=0)
        parallel = rank_influence(ring_build, Exponential(100.0), seed=1, jobs=2)
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_map_replicate_batches_empty_pool_seeds(self, ring_build):
        plan = compiled_plan(ring_build)
        got = map_replicate_batches(plan, spec().signature, [], jobs=2)
        assert got.shape == (0, ring_build.graph.nprocs)

    def test_graph_engine_rejects_pool(self, ring_build):
        """The reference engine runs in process only: a pool request is
        an error, not a silent serial run."""
        with pytest.raises(ValueError, match="in-process reference engine"):
            monte_carlo(ring_build, spec(), replicates=4, engine="graph", jobs=2)


class TestFallback:
    def test_broken_pool_degrades_to_serial(self, ring_build, monkeypatch):
        """Platforms without working process pools warn and run serially,
        producing the same results."""

        def boom(*args, **kwargs):
            raise OSError("no process support")

        monkeypatch.setattr("repro.core.parallel.ProcessPoolExecutor", boom)
        s = spec(seed=8)
        reference = monte_carlo(ring_build, s, replicates=4, jobs=0)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            dist = monte_carlo(ring_build, s, replicates=4, jobs=2)
        assert np.array_equal(reference.samples, dist.samples)

    def test_no_warning_on_healthy_path(self, ring_build):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            monte_carlo(ring_build, spec(), replicates=2, jobs=2)


class TestDistributionValidation:
    def test_rejects_non_2d_samples(self):
        with pytest.raises(ValueError, match="2-D"):
            DelayDistribution(samples=np.zeros(4), seeds=(0,))

    def test_rejects_row_seed_mismatch(self):
        with pytest.raises(ValueError, match="seeds"):
            DelayDistribution(samples=np.zeros((3, 2)), seeds=(0, 1))

    def test_seeds_are_tuple(self, ring_build):
        dist = monte_carlo(ring_build, spec(), replicates=2)
        assert isinstance(dist.seeds, tuple)
