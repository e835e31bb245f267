"""Critical-path extraction: oracle agreement, determinism, and the
replicate-batch invariant.

The acceptance-critical property: the extracted path — edges, nodes,
per-edge costs, AND total — walked over the compiled plan's path costs
is *bit-identical* to the scalar reference oracle
(:func:`~repro.testing.oracle.longest_weighted_path`) for any
simulator-producible run, on the flat and the coarse plan alike, and
batching extra replicate rows through the walk never changes row 0.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BuildConfig, build_graph
from repro.core.compiled import CompiledPlan, compiled_plan
from repro.core.graph import EdgeKind
from repro.diagnose import CriticalPathExtract, extract_critical_path
from repro.diagnose.path import path_costs
from repro.mpisim import run
from repro.testing.oracle import longest_weighted_path
from tests.conftest import plan_program
from tests.core.test_build_golden import COARSE_APPS, _trace

_round = st.one_of(
    st.tuples(st.just("compute"), st.integers(100, 3000)),
    st.tuples(st.just("ring"), st.integers(0, 20_000)),
    st.tuples(st.just("xchg"), st.integers(0, 2000)),
    st.tuples(st.just("nb"), st.integers(0, 20_000)),
    st.tuples(st.just("allreduce"), st.integers(0, 128)),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("scan"), st.integers(0, 128)),
    st.tuples(st.just("rscatter"), st.integers(0, 128)),
)

_plans = st.lists(_round, min_size=1, max_size=4)


def oracle_extract(build, deltas=None):
    """The same extraction over the scalar reference oracle: latest
    finalize (ties toward the lowest rank), then backtrack."""
    g = build.graph
    costs = path_costs(build, deltas)
    L, pred = longest_weighted_path(build, costs.tolist())
    finals = [g.final_node_of(r) for r in range(g.nprocs)]
    final_costs = [0.0 if nid is None else L[nid] for nid in finals]
    sink_rank = max(
        (r for r, nid in enumerate(finals) if nid is not None),
        key=lambda r: (final_costs[r], -r),
    )
    node, path = finals[sink_rank], []
    while pred[node] >= 0:
        path.append(pred[node])
        node = g.edges[pred[node]].src
    path.reverse()
    return CriticalPathExtract(
        sink_rank=sink_rank,
        total_cost=final_costs[sink_rank],
        edges=tuple(path),
        nodes=tuple([node] + [g.edges[ei].dst for ei in path]),
        costs=tuple(float(costs[ei]) for ei in path),
        final_costs=tuple(final_costs),
        engine="oracle",
    )


def extract_all_engines(build, deltas=None):
    return [extract_critical_path(build, deltas=deltas), oracle_extract(build, deltas)]


def assert_identical(extracts):
    ref = extracts[0]
    for other in extracts[1:]:
        assert other.edges == ref.edges, f"{other.engine} path != {ref.engine} path"
        assert other.nodes == ref.nodes
        assert other.costs == ref.costs
        assert other.total_cost == ref.total_cost
        assert other.final_costs == ref.final_costs
        assert other.sink_rank == ref.sink_rank


class TestEngineAgreement:
    def test_ring_identical_across_engines(self, ring_trace):
        build = build_graph(ring_trace)
        assert_identical(extract_all_engines(build))

    def test_stencil_identical_across_engines(self, stencil_trace):
        build = build_graph(stencil_trace)
        assert_identical(extract_all_engines(build))

    def test_identical_with_random_deltas(self, ring_trace, rng):
        build = build_graph(ring_trace)
        deltas = rng.exponential(500.0, size=len(build.graph.edges))
        assert_identical(extract_all_engines(build, deltas=deltas))

    @given(plan=_plans, p=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_any_run_identical_across_engines(self, plan, p):
        """Property: path extraction is engine-independent for ANY valid run."""
        build = build_graph(run(plan_program(plan), nprocs=p, seed=5).trace)
        assert_identical(extract_all_engines(build))

    def test_auto_is_compiled(self, ring_trace):
        cp = extract_critical_path(build_graph(ring_trace))
        assert cp.engine == "compiled"

    def test_negative_message_weights_are_not_clamped(self):
        """An ``absolute_weights`` build weighs acknowledgement edges by
        their signed lag; the path costs take them as given, below
        ``-weight`` or not, exactly as the oracle does."""
        trace = run(plan_program([("ring", 64), ("compute", 500)]), nprocs=3, seed=5).trace
        build = build_graph(trace, BuildConfig(absolute_weights=True))
        g = build.graph
        assert (g.edge_weight[g.edge_kind == EdgeKind.MESSAGE] < 0).any()
        assert_identical(extract_all_engines(build))

    @pytest.mark.parametrize("case", sorted(COARSE_APPS))
    def test_coarse_plan_identical_to_flat(self, case, monkeypatch):
        """The walk over a coarse plan yields the flat plan's path."""
        app, nprocs, params = COARSE_APPS[case]
        trace = _trace(app, nprocs, params)
        extracts = {}
        for coarsen, min_nodes in (("off", 1 << 62), ("on", 0)):
            monkeypatch.setattr("repro.core.compiled.AUTO_MIN_NODES", min_nodes)
            build = build_graph(trace)
            extracts[coarsen] = extract_critical_path(build)
            assert (compiled_plan(build).coarse is not None) == (coarsen == "on")
        assert_identical([extracts["off"], extracts["on"]])


def walk_costs(plan, rows: np.ndarray) -> np.ndarray:
    """(R, n_nodes) longest-path values of cost rows ``rows``: the
    plan's walk over the costs as given."""
    return plan.walk(len(rows), lambda cols, span: rows[:, cols], None, detail=True).node_delay


class TestReplicateBatchInvariance:
    """The path costs extraction reads come from the replicate-batched
    walk; batching other rows alongside never changes one."""

    def test_row_zero_invariant_under_batching(self, ring_trace, rng):
        """Stacking extra replicate rows never changes an existing row."""
        build = build_graph(ring_trace)
        plan = compiled_plan(build)
        costs = path_costs(build)
        L1 = walk_costs(plan, costs[None, :])
        stacked = np.vstack(
            [costs, costs * 2.0, rng.exponential(1000.0, size=costs.shape)]
        )
        assert np.array_equal(L1[0], walk_costs(plan, stacked)[0])

    def test_each_batch_row_matches_solo_run(self, stencil_trace, rng):
        build = build_graph(stencil_trace)
        plan = compiled_plan(build)
        rows = rng.exponential(800.0, size=(4, len(build.graph.edges)))
        Lb = walk_costs(plan, rows)
        for i in range(rows.shape[0]):
            assert np.array_equal(Lb[i], walk_costs(plan, rows[i][None, :])[0])

    def test_extraction_matches_batched_final_cost(self, ring_trace):
        build = build_graph(ring_trace)
        cp = extract_critical_path(build)
        L = walk_costs(compiled_plan(build), path_costs(build)[None, :])
        assert cp.total_cost == float(L[0].max())


@pytest.mark.parametrize("coarsen", ["off", "on"])
def test_costs_walk_keeps_no_edge_deltas(coarsen):
    """Over the costs as given (``mode=None``) the effective deltas are
    the caller's own row, so the walk returns none; a propagation mode
    still gets its clamped deltas."""
    build = build_graph(_trace(*COARSE_APPS["stencil1d-long"]))
    plan = CompiledPlan(build, coarsen=coarsen)
    assert (plan.coarse is not None) == (coarsen == "on")
    costs = path_costs(build)[None, :]
    take = lambda cols, span: costs[:, cols]
    walk = plan.walk(1, take, None, detail=True)
    assert walk.edge_delta is None and walk.node_delay.shape == (1, plan.n_nodes)
    assert plan.walk(1, take, "additive", detail=True).edge_delta.shape == (1, plan.n_edges)


class TestExtractShape:
    def test_path_is_a_connected_chain(self, ring_trace):
        build = build_graph(ring_trace)
        cp = extract_critical_path(build)
        g = build.graph
        assert len(cp.nodes) == len(cp.edges) + 1
        for i, ei in enumerate(cp.edges):
            assert g.edges[ei].src == cp.nodes[i]
            assert g.edges[ei].dst == cp.nodes[i + 1]
        assert cp.total_cost == pytest.approx(sum(cp.costs))
        assert g.nodes[cp.nodes[-1]].rank == cp.sink_rank

    def test_costs_align_with_edge_weights(self, ring_trace):
        build = build_graph(ring_trace)
        cp = extract_critical_path(build)
        for ei, c in zip(cp.edges, cp.costs):
            assert c == build.graph.edges[ei].weight

    def test_final_costs_cover_all_ranks(self, stencil_trace):
        build = build_graph(stencil_trace)
        cp = extract_critical_path(build)
        assert len(cp.final_costs) == build.graph.nprocs
        assert max(cp.final_costs) == cp.total_cost

    def test_runner_up_ratio_bounds(self, ring_trace):
        cp = extract_critical_path(build_graph(ring_trace))
        assert 0.0 <= cp.runner_up_ratio() <= 1.0

    def test_as_dict_round_trips_key_fields(self, ring_trace):
        cp = extract_critical_path(build_graph(ring_trace))
        d = cp.as_dict()
        assert d["sink_rank"] == cp.sink_rank
        assert d["engine"] == "compiled"
        assert tuple(d["edges"]) == cp.edges

    def test_bad_deltas_shape_rejected(self, ring_trace):
        build = build_graph(ring_trace)
        with pytest.raises(ValueError, match="deltas shape"):
            extract_critical_path(build, deltas=[1.0, 2.0])
