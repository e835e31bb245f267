"""Tests for the bundled workloads: every app must run to completion on
the simulator, produce a valid trace, and match its expected message
structure."""

import pytest

from repro.apps import (
    ALL_APPS,
    AllreduceIterParams,
    ButterflyParams,
    MasterWorkerParams,
    PipelineParams,
    RandomSparseParams,
    StencilParams,
    TokenRingParams,
    allreduce_iter,
    butterfly_allreduce,
    master_worker,
    neighbor_sets,
    pipeline,
    random_sparse,
    stencil1d,
    token_ring,
)
from repro.lint import lint_run
from repro.mpisim import run
from repro.trace.events import EventKind


def count(trace, rank, kind):
    return sum(1 for e in trace.events_of(rank) if e.kind == kind)


@pytest.mark.parametrize(
    "name,factory,params,p",
    [
        ("token_ring", token_ring, TokenRingParams(traversals=2), 5),
        ("stencil1d", stencil1d, StencilParams(iterations=3), 5),
        ("stencil1d-open", stencil1d, StencilParams(iterations=2, periodic=False), 4),
        ("master_worker", master_worker, MasterWorkerParams(tasks=9), 4),
        ("allreduce_iter", allreduce_iter, AllreduceIterParams(iterations=4), 6),
        ("butterfly", butterfly_allreduce, ButterflyParams(iterations=2), 8),
        ("pipeline", pipeline, PipelineParams(items=5), 4),
        ("random_sparse", random_sparse, RandomSparseParams(iterations=2), 6),
    ],
)
def test_app_runs_and_traces_validate(name, factory, params, p):
    res = run(factory(params), nprocs=p, seed=1)
    assert res.makespan > 0
    report = lint_run(res.trace)
    assert report.ok, f"{name}: {[f.message for f in report.errors[:3]]}"


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_registry_default_params_run(name):
    factory, params_cls = ALL_APPS[name]
    p = 8 if name == "butterfly_allreduce" else 4
    res = run(factory(params_cls()), nprocs=p, seed=0)
    assert lint_run(res.trace).ok


class TestTokenRing:
    def test_message_count(self):
        T, p = 3, 6
        res = run(token_ring(TokenRingParams(traversals=T)), nprocs=p, seed=0)
        for rank in range(p):
            assert count(res.trace, rank, EventKind.SEND) == T
            assert count(res.trace, rank, EventKind.RECV) == T

    def test_single_rank_degenerates_to_compute(self):
        res = run(token_ring(TokenRingParams(traversals=3)), nprocs=1, seed=0)
        assert count(res.trace, 0, EventKind.SEND) == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TokenRingParams(traversals=0)
        with pytest.raises(ValueError):
            TokenRingParams(token_bytes=-1)
        with pytest.raises(ValueError):
            TokenRingParams(compute_cycles=-1.0)


class TestStencil:
    def test_periodic_message_count(self):
        it, p = 4, 5
        res = run(stencil1d(StencilParams(iterations=it)), nprocs=p, seed=0)
        for rank in range(p):
            assert count(res.trace, rank, EventKind.ISEND) == 2 * it
            assert count(res.trace, rank, EventKind.IRECV) == 2 * it
            assert count(res.trace, rank, EventKind.WAITALL) == it

    def test_open_boundary_ranks_fewer_messages(self):
        it, p = 3, 4
        res = run(stencil1d(StencilParams(iterations=it, periodic=False)), nprocs=p, seed=0)
        assert count(res.trace, 0, EventKind.ISEND) == it  # only right neighbor
        assert count(res.trace, 1, EventKind.ISEND) == 2 * it

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StencilParams(iterations=0)
        with pytest.raises(ValueError):
            StencilParams(halo_bytes=-1)


class TestMasterWorker:
    def test_task_conservation(self):
        tasks, p = 13, 4
        res = run(master_worker(MasterWorkerParams(tasks=tasks)), nprocs=p, seed=0)
        # Results received by master == tasks dispatched.
        results = sum(
            1
            for e in res.trace.events_of(0)
            if e.kind == EventKind.RECV and e.tag == 2
        )
        assert results == tasks
        # Every worker got exactly one stop message (tag 3).
        stops = sum(
            1 for e in res.trace.events_of(0) if e.kind == EventKind.SEND and e.tag == 3
        )
        assert stops == p - 1

    def test_fewer_tasks_than_workers(self):
        res = run(master_worker(MasterWorkerParams(tasks=2)), nprocs=6, seed=0)
        assert lint_run(res.trace).ok

    def test_wildcard_sources_resolved(self):
        res = run(master_worker(MasterWorkerParams(tasks=8)), nprocs=4, seed=0)
        for e in res.trace.events_of(0):
            if e.kind == EventKind.RECV:
                assert e.peer >= 1  # resolved, not ANY_SOURCE


class TestButterfly:
    def test_power_of_two_enforced(self):
        import pytest


        with pytest.raises((ValueError, RuntimeError)):
            run(butterfly_allreduce(ButterflyParams(iterations=1)), nprocs=6, seed=0)

    def test_stage_count(self):
        it, p = 2, 8
        res = run(butterfly_allreduce(ButterflyParams(iterations=it)), nprocs=p, seed=0)
        for rank in range(p):
            assert count(res.trace, rank, EventKind.SENDRECV) == it * 3  # log2(8)


class TestPipeline:
    def test_endpoint_roles(self):
        items, p = 6, 4
        res = run(pipeline(PipelineParams(items=items)), nprocs=p, seed=0)
        assert count(res.trace, 0, EventKind.RECV) == 0
        assert count(res.trace, 0, EventKind.SEND) == items
        assert count(res.trace, p - 1, EventKind.RECV) == items
        assert count(res.trace, p - 1, EventKind.SEND) == 0

    def test_middle_stage_forwards(self):
        res = run(pipeline(PipelineParams(items=5)), nprocs=4, seed=0)
        assert count(res.trace, 1, EventKind.RECV) == 5
        assert count(res.trace, 1, EventKind.SEND) == 5


class TestRandomSparse:
    def test_topology_deterministic(self):
        params = RandomSparseParams(degree=3, topology_seed=42)
        assert neighbor_sets(8, params) == neighbor_sets(8, params)

    def test_out_degree_respected(self):
        params = RandomSparseParams(degree=3)
        topo = neighbor_sets(10, params)
        for row in topo:
            assert len(row) == 3
            assert len({d for d, _ in row}) == 3

    def test_degree_capped_for_tiny_p(self):
        params = RandomSparseParams(degree=5)
        topo = neighbor_sets(3, params)
        for r, row in enumerate(topo):
            assert len(row) == 2
            assert all(d != r for d, _ in row)

    def test_message_counts_match_topology(self):
        params = RandomSparseParams(iterations=2, degree=2)
        p = 5
        topo = neighbor_sets(p, params)
        res = run(random_sparse(params), nprocs=p, seed=0)
        for rank in range(p):
            assert count(res.trace, rank, EventKind.ISEND) == 2 * len(topo[rank])


class TestStencil2D:
    def test_grid_shape(self):
        from repro.apps import grid_shape

        assert grid_shape(1) == (1, 1)
        assert grid_shape(6) == (2, 3)
        assert grid_shape(12) == (3, 4)
        assert grid_shape(16) == (4, 4)
        assert grid_shape(7) == (1, 7)
        with pytest.raises(ValueError):
            grid_shape(0)

    def test_runs_and_validates(self):
        from repro.apps import Stencil2DParams, stencil2d

        res = run(stencil2d(Stencil2DParams(iterations=3)), nprocs=6, seed=0)
        assert lint_run(res.trace).ok

    def test_interior_vs_corner_neighbor_counts(self):
        from repro.apps import Stencil2DParams, stencil2d

        it = 2
        res = run(stencil2d(Stencil2DParams(iterations=it)), nprocs=9, seed=0)  # 3x3 grid
        # corner rank 0 has 2 neighbors; center rank 4 has 4.
        assert count(res.trace, 0, EventKind.ISEND) == 2 * it
        assert count(res.trace, 4, EventKind.ISEND) == 4 * it

    def test_periodic_all_ranks_four_neighbors(self):
        from repro.apps import Stencil2DParams, stencil2d

        res = run(stencil2d(Stencil2DParams(iterations=2, periodic=True)), nprocs=9, seed=0)
        for rank in range(9):
            assert count(res.trace, rank, EventKind.ISEND) == 8

    def test_noise_front_spreads_like_a_diamond(self):
        """A single noisy rank's delay reaches grid neighbors first —
        the 2-D analogue of §4.2's propagation regions."""
        from repro.apps import Stencil2DParams, stencil2d
        from repro.core import PerturbationSpec, build_graph, propagate
        from repro.noise import Constant, MachineSignature

        p = 9  # 3x3, center rank 4
        trace = run(
            stencil2d(Stencil2DParams(iterations=1, interior_cycles=10_000.0)),
            nprocs=p,
            seed=0,
        ).trace
        build = build_graph(trace)
        sig = MachineSignature(os_noise_by_rank={4: Constant(50_000.0)})
        res = propagate(build, PerturbationSpec(sig, seed=0))
        # After one step, the center's noise reaches its 4 face neighbors
        # but not the corners (diagonals need two hops).
        neighbors = {1, 3, 5, 7}
        corners = {0, 2, 6, 8}
        for r in neighbors:
            assert res.final_delay[r] > 0
        for r in corners:
            assert res.final_delay[r] == 0.0

    def test_equality_across_engines(self):
        from repro.apps import Stencil2DParams, stencil2d
        from repro.core import PerturbationSpec
        from repro.noise import Exponential, MachineSignature
        from tests.conftest import assert_engines_agree

        trace = run(stencil2d(Stencil2DParams(iterations=3)), nprocs=6, seed=1).trace
        sig = MachineSignature(os_noise=Exponential(90.0), latency=Exponential(35.0))
        assert_engines_agree(trace, PerturbationSpec(sig, seed=4))


class TestFFTTranspose:
    def test_runs_and_validates(self):
        from repro.apps import FFTTransposeParams, fft_transpose

        res = run(fft_transpose(FFTTransposeParams(stages=3)), nprocs=6, seed=0)
        assert lint_run(res.trace).ok
        assert count(res.trace, 0, EventKind.ALLTOALL) == 3

    def test_bandwidth_bound_scaling(self):
        """Transpose time scales with block size: quadrupling the payload
        must visibly grow the makespan (bisection-bandwidth-bound)."""
        from repro.apps import FFTTransposeParams, fft_transpose

        small = run(
            fft_transpose(FFTTransposeParams(stages=3, block_bytes=1_000)), nprocs=8, seed=0
        ).makespan
        big = run(
            fft_transpose(FFTTransposeParams(stages=3, block_bytes=400_000)), nprocs=8, seed=0
        ).makespan
        assert big > small * 2

    def test_param_validation(self):
        from repro.apps import FFTTransposeParams

        with pytest.raises(ValueError):
            FFTTransposeParams(stages=0)
        with pytest.raises(ValueError):
            FFTTransposeParams(block_bytes=-1)
