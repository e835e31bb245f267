"""Tests for runtime impact, critical path, and absorption analyses."""

import pytest

from repro.apps import (
    ALL_APPS,
    MasterWorkerParams,
    StencilParams,
    TokenRingParams,
    master_worker,
    stencil1d,
    token_ring,
)
from repro.core import (
    PerturbationSpec,
    StreamingTraversal,
    absorption_map,
    build_graph,
    critical_path,
    propagate,
    runtime_impact,
)
from repro.core.analysis import _EPS
from repro.core.coarsen import AUTO_MIN_NODES
from repro.core.compiled import compiled_plan
from repro.core.graph import EdgeKind
from repro.testing.oracle import longest_weighted_path
from repro.mpisim import run
from repro.noise import Constant, Exponential, MachineSignature
from repro.trace.reader import MemoryTrace
from tests.conftest import plan_program


def spec(os=0.0, lat=0.0, per_byte=0.0, seed=0, by_rank=None):
    return PerturbationSpec(
        MachineSignature(
            os_noise=Constant(os),
            latency=Constant(lat),
            per_byte=Constant(per_byte),
            os_noise_by_rank=by_rank or {},
        ),
        seed=seed,
    )


class TestRuntimeImpact:
    def test_delays_and_slowdowns(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec(os=100.0, lat=50.0))
        impact = runtime_impact(build, res)
        assert impact.delays == tuple(res.final_delay)
        assert len(impact.slowdowns) == ring_trace.nprocs
        for d, t, s in zip(impact.delays, impact.original_runtimes, impact.slowdowns):
            assert s == pytest.approx(d / t)
        assert impact.max_delay == max(impact.delays)

    def test_table_renders(self, ring_trace):
        build = build_graph(ring_trace)
        impact = runtime_impact(build, propagate(build, spec(os=10.0)))
        table = impact.table()
        assert "rank" in table
        assert len(table.splitlines()) == ring_trace.nprocs + 1


class TestCriticalPath:
    def test_pure_latency_ring_path_crosses_ranks(self):
        trace = run(token_ring(TokenRingParams(traversals=2)), nprocs=4, seed=0).trace
        build = build_graph(trace)
        res = propagate(build, spec(lat=100.0))
        cp = critical_path(build, res)
        assert cp.total_delay > 0
        assert len(cp.ranks_visited) > 1  # token delay chains across ranks
        assert cp.dominant_class() in ("TRANSFER_OS", "LATENCY")

    def test_attribution_sums_to_total(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec(os=100.0, lat=25.0))
        cp = critical_path(build, res)
        assert sum(cp.by_delta_kind.values()) == pytest.approx(cp.total_delay)
        assert sum(cp.by_edge_kind.values()) == pytest.approx(cp.total_delay)

    def test_os_only_attribution(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec(os=100.0))
        cp = critical_path(build, res)
        assert cp.dominant_class() == "OS"
        assert set(cp.by_delta_kind) <= {"OS", "TRANSFER_OS", "COLL_FANIN"}

    def test_explicit_rank_selection(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec(os=50.0))
        cp = critical_path(build, res, rank=2)
        assert cp.rank == 2
        assert cp.total_delay == pytest.approx(res.final_delay[2])

    def test_zero_noise_empty_path(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec())
        cp = critical_path(build, res)
        assert cp.total_delay == 0.0
        assert cp.by_delta_kind == {}

    def test_rank_without_events(self):
        """A rank with no events has no final node: the default choice
        skips it, an explicit request for it is refused by name."""
        trace = run(plan_program([("compute", 500)]), nprocs=2, seed=0).trace
        build = build_graph(MemoryTrace([[], list(trace.events_of(1))]))
        res = compiled_plan(build).propagate_one(spec())
        assert critical_path(build, res).rank == 1
        with pytest.raises(ValueError, match="rank 0 has no events"):
            critical_path(build, res, rank=0)
        empty = build_graph(MemoryTrace([[], []]))
        with pytest.raises(ValueError, match="rank 0 has no events"):
            critical_path(empty, compiled_plan(empty).propagate_one(spec()))

    def test_requires_incore(self, ring_trace, const_spec):
        streaming = StreamingTraversal(const_spec).run(ring_trace)
        build = build_graph(ring_trace)
        with pytest.raises(ValueError):
            critical_path(build, streaming)


def _oracle_binding_path(build, result):
    """The oracle's predecessor chain into the critical path's sink,
    trimmed at the first node whose delay is at most ``_EPS``."""
    g = build.graph
    L, pred = longest_weighted_path(build, result.edge_delta)
    assert L == result.node_delay
    rank = max(range(g.nprocs), key=lambda r: result.final_delay[r])
    node, path = g.final_node_of(rank), []
    while pred[node] >= 0 and L[node] > _EPS:
        path.append(pred[node])
        node = g.edges[pred[node]].src
    return tuple(reversed(path))


_ORACLE_SIGNATURES = (
    MachineSignature(os_noise=Exponential(80.0), latency=Exponential(40.0)),
    # Constant noise makes exact max() ties common.
    MachineSignature(os_noise=Constant(100.0), latency=Constant(50.0)),
)


@pytest.fixture(scope="module")
def oracle_builds():
    builds = {}
    for name, (factory, params_cls) in sorted(ALL_APPS.items()):
        p = 8 if name == "butterfly_allreduce" else 4
        builds[name] = build_graph(run(factory(params_cls()), nprocs=p, seed=1).trace)
    # 52 016 nodes: the automatic policy coarsens this one.
    trace = run(stencil1d(StencilParams(iterations=1300)), nprocs=4, seed=1).trace
    builds["stencil1d-coarse"] = build_graph(trace)
    return builds


class TestCriticalPathOracle:
    """``critical_path`` walks exact ties, so its chain is the
    ``longest_weighted_path`` oracle's predecessor chain over the
    sampled deltas — on the flat plan and on the coarse one."""

    @pytest.mark.parametrize("mode", ["additive", "threshold"])
    @pytest.mark.parametrize("app", [*sorted(ALL_APPS), "stencil1d-coarse"])
    def test_chain_equals_oracle(self, oracle_builds, app, mode):
        build = oracle_builds[app]
        plan = compiled_plan(build)
        coarse = app.endswith("-coarse")
        assert (plan.coarse is not None) == coarse
        assert (len(build.graph.nodes) >= AUTO_MIN_NODES) == coarse
        for sig in _ORACLE_SIGNATURES:
            res = plan.propagate_one(PerturbationSpec(sig, seed=3), mode=mode)
            cp = critical_path(build, res)
            assert cp.edges == _oracle_binding_path(build, res), sig


class TestAbsorption:
    def test_token_ring_mostly_propagates(self):
        """The fully synchronous ring (§6.1) propagates message delays."""
        trace = run(token_ring(TokenRingParams(traversals=3)), nprocs=4, seed=0).trace
        build = build_graph(trace)
        res = propagate(build, spec(lat=500.0))
        am = absorption_map(build, res)
        assert am.overall_ratio() < 0.5  # mostly binding (sensitive code)

    def test_master_worker_absorbs_more_than_ring(self):
        """§4.2's tolerant-vs-sensitive distinction: a task farm hides
        single-worker slowness better than a lockstep ring."""
        farm = run(
            master_worker(MasterWorkerParams(tasks=24, base_cycles=50_000.0)), nprocs=5, seed=0
        ).trace
        ring = run(token_ring(TokenRingParams(traversals=3)), nprocs=5, seed=0).trace
        s = spec(os=0.0, lat=0.0, by_rank={2: Constant(20_000.0)})
        farm_res = propagate(build_graph(farm), s)
        ring_res = propagate(build_graph(ring), s)
        am_farm = absorption_map(build_graph(farm), farm_res)
        am_ring = absorption_map(build_graph(ring), ring_res)
        assert am_farm.overall_ratio() > am_ring.overall_ratio()

    def test_counts_partition_events(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec(os=100.0, lat=10.0))
        am = absorption_map(build, res)
        for rank in range(ring_trace.nprocs):
            listed = len(am.events[rank])
            assert listed == am.propagated_counts[rank] + am.absorbed_counts[rank]

    def test_absorbed_slack_nonnegative(self, stencil_trace):
        build = build_graph(stencil_trace)
        res = propagate(build, spec(os=200.0, lat=30.0))
        am = absorption_map(build, res)
        assert all(s >= 0.0 for s in am.slack.values())


class TestCriticalPathDescribe:
    def test_describe_lists_top_edges(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec(os=100.0, lat=25.0))
        cp = critical_path(build, res)
        text = cp.describe(build, limit=5)
        assert "critical path of rank" in text
        assert "cy" in text
        # At most header + 5 contributor rows.
        assert len(text.splitlines()) <= 6
        assert "OS" in text or "TRANSFER_OS" in text

    def test_describe_zero_noise(self, ring_trace):
        build = build_graph(ring_trace)
        res = propagate(build, spec())
        cp = critical_path(build, res)
        text = cp.describe(build)
        assert "0 cy over 0 edges" in text


# ---------------------------------------------------------------------------
# Column-store analyses against the per-object loops they replaced
# ---------------------------------------------------------------------------

_EPS = 1e-9
_TIME_EPS = 1e-6


def _loop_absorption(g, D, deltas):
    """Reference: absorption map as a loop over Node/Edge values."""
    events = {r: [] for r in range(g.nprocs)}
    propagated = {r: 0 for r in range(g.nprocs)}
    absorbed = {r: 0 for r in range(g.nprocs)}
    slack = {r: 0.0 for r in range(g.nprocs)}
    edges = list(g.edges)
    for node in g.nodes:
        if node.is_virtual:
            continue
        msg = [ei for ei in g.in_edge_ids(node.node_id) if edges[ei].kind == EdgeKind.MESSAGE]
        if not msg:
            continue
        d_node = D[node.node_id]
        best = max(D[edges[ei].src] + deltas[ei] for ei in msg)
        binding = abs(best - d_node) <= _EPS and d_node > _EPS
        events[node.rank].append((node.seq, binding))
        if binding:
            propagated[node.rank] += 1
        else:
            absorbed[node.rank] += 1
            slack[node.rank] += max(0.0, d_node - best)
    return events, propagated, absorbed, slack


def _loop_order_violations(g, D, deltas):
    """Reference: the §4.3 order check as a loop over Node/Edge values."""
    out = []
    nodes = list(g.nodes)
    for rank in range(g.nprocs):
        prev_t, prev_node = float("-inf"), None
        for nid in g.rank_chain(rank):
            node = nodes[nid]
            t = node.t_local + D[nid]
            if t < prev_t - _TIME_EPS:
                out.append(
                    f"rank {rank}: subevent #{node.seq}.{node.phase.name} at "
                    f"perturbed time {t:.3f} precedes predecessor ({prev_node}) at {prev_t:.3f}"
                )
            prev_t = max(prev_t, t)
            prev_node = f"#{node.seq}.{node.phase.name}"
    for ei, e in enumerate(g.edges):
        if D[e.dst] < D[e.src] + deltas[ei] - _TIME_EPS:
            out.append(f"edge {e.src}->{e.dst} ({e.label or e.kind.name}): delay not propagated")
    return out


def _loop_binding_path(g, D, deltas, rank):
    """Reference: the critical path's binding in-edge chain."""
    edges = list(g.edges)
    node, path = g.final_node_of(rank), []
    while True:
        binding = next(
            (ei for ei in g.in_edge_ids(node)
             if abs(D[edges[ei].src] + deltas[ei] - D[node]) <= _EPS),
            None,
        )
        if binding is None or D[node] <= _EPS:
            break
        path.append(binding)
        node = edges[binding].src
    return tuple(reversed(path))


class TestColumnsMatchObjectLoops:
    @pytest.mark.parametrize("mode", ["hub", "butterfly"])
    def test_analyses_equal_loop_references(self, ring_trace, stencil_trace, mode):
        import random

        from repro.core import BuildConfig
        from repro.core.correctness import check_order_preserved
        from repro.core.traversal import TraversalResult
        from repro.noise import Exponential

        sig = MachineSignature(os_noise=Exponential(80.0), latency=Exponential(40.0))
        for trace in (ring_trace, stencil_trace):
            build = build_graph(trace, BuildConfig(collective_mode=mode))
            g = build.graph
            res = propagate(build, PerturbationSpec(sig, seed=3))
            am = absorption_map(build, res)
            assert (am.events, am.propagated_counts, am.absorbed_counts, am.slack) == (
                _loop_absorption(g, res.node_delay, res.edge_delta)
            )
            cp = critical_path(build, res)
            assert cp.edges == _loop_binding_path(g, res.node_delay, res.edge_delta, cp.rank)
            # A corrupted result exercises every violation message.
            rng = random.Random(5)
            bad = TraversalResult(
                final_delay=res.final_delay,
                final_local_times=res.final_local_times,
                mode="additive",
                clamped_edges=0,
                node_delay=[rng.uniform(-1e4, 1e4) for _ in res.node_delay],
                edge_delta=[rng.uniform(-100.0, 100.0) for _ in res.edge_delta],
            )
            violations = check_order_preserved(build, bad)
            assert violations
            assert violations == _loop_order_violations(g, bad.node_delay, bad.edge_delta)
