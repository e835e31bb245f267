"""Tests for the message-passing graph data structure."""

import math

import pytest

from repro.core.graph import (
    DeltaKind,
    DeltaSpec,
    EdgeKind,
    MessagePassingGraph,
    NO_DELTA,
    Phase,
)
from repro.trace.events import EventKind


def small_graph():
    g = MessagePassingGraph(2)
    s0 = g.add_node(0, 0, Phase.START, EventKind.SEND, 0.0)
    e0 = g.add_node(0, 0, Phase.END, EventKind.SEND, 5.0)
    s1 = g.add_node(1, 0, Phase.START, EventKind.RECV, 100.0)
    e1 = g.add_node(1, 0, Phase.END, EventKind.RECV, 110.0)
    g.add_edge(s0, e0, EdgeKind.LOCAL, 5.0)
    g.add_edge(s1, e1, EdgeKind.LOCAL, 10.0)
    g.add_edge(s0, e1, EdgeKind.MESSAGE, 0.0, DeltaSpec(DeltaKind.TRANSFER_OS, uid=(1,)))
    g.add_edge(e1, e0, EdgeKind.MESSAGE, 0.0, DeltaSpec(DeltaKind.LATENCY, uid=(2,)))
    return g, (s0, e0, s1, e1)


class TestConstruction:
    def test_node_lookup(self):
        g, (s0, e0, s1, e1) = small_graph()
        assert g.node_of(0, 0, Phase.START) == s0
        assert g.node_of(1, 0, Phase.END) == e1
        assert g.has_node(0, 0, Phase.END)
        assert not g.has_node(0, 1, Phase.START)

    def test_duplicate_subevent_rejected(self):
        g, _ = small_graph()
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node(0, 0, Phase.START, EventKind.SEND, 0.0)

    def test_virtual_nodes_not_unique_keyed(self):
        g, _ = small_graph()
        a = g.add_node(-1, 5, Phase.VIRTUAL, EventKind.BARRIER, math.nan)
        b = g.add_node(-1, 5, Phase.VIRTUAL, EventKind.BARRIER, math.nan)
        assert a != b
        assert g.nodes[a].is_virtual

    def test_edge_validation(self):
        g, (s0, e0, *_ ) = small_graph()
        with pytest.raises(ValueError, match="out of range"):
            g.add_edge(s0, 999, EdgeKind.LOCAL, 1.0)
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(s0, s0, EdgeKind.LOCAL, 1.0)
        with pytest.raises(ValueError, match="negative local"):
            g.add_edge(s0, e0, EdgeKind.LOCAL, -1.0)

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            MessagePassingGraph(0)


class TestTopology:
    def test_adjacency(self):
        g, (s0, e0, s1, e1) = small_graph()
        assert len(g.out_edge_ids(s0)) == 2
        assert len(g.in_edge_ids(e0)) == 2
        assert set(g.edge_dst[g.out_edge_ids(s0)].tolist()) == {e0, e1}
        assert set(g.edge_src[g.in_edge_ids(e1)].tolist()) == {s1, s0}

    def test_topological_order(self):
        g, (s0, e0, s1, e1) = small_graph()
        order = g.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for e in g.edges:
            assert pos[e.src] < pos[e.dst]

    def test_cycle_detected(self):
        g, (s0, e0, s1, e1) = small_graph()
        g.add_edge(e0, s0, EdgeKind.MESSAGE, 0.0)  # closes a cycle
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_rank_chain_ordered(self):
        g, (s0, e0, s1, e1) = small_graph()
        assert g.rank_chain(0) == [s0, e0]
        assert g.rank_chain(1) == [s1, e1]

    def test_edge_kind_iterators(self):
        g, _ = small_graph()
        assert sum(1 for _ in g.local_edges()) == 2
        assert sum(1 for _ in g.message_edges()) == 2


class TestStats:
    def test_counts(self):
        g, _ = small_graph()
        s = g.stats()
        assert s == {
            "nprocs": 2,
            "nodes": 4,
            "virtual_nodes": 0,
            "edges": 4,
            "local_edges": 2,
            "message_edges": 2,
        }


class TestDeltaSpec:
    def test_defaults(self):
        assert NO_DELTA.kind == DeltaKind.NONE
        assert NO_DELTA.uid == ()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NO_DELTA.kind = DeltaKind.OS


def to_networkx(graph):
    """``graph`` as a :class:`networkx.MultiDiGraph` (templates may emit
    parallel edges between one subevent pair), with node attributes
    ``rank``, ``seq``, ``phase``, ``kind``, ``t_local``, ``label``,
    ``virtual`` and edge attributes ``kind``, ``weight``,
    ``delta_kind``, ``label``."""
    import networkx as nx

    g = nx.MultiDiGraph(nprocs=graph.nprocs)
    for n in graph.nodes:
        g.add_node(
            n.node_id,
            rank=n.rank,
            seq=n.seq,
            phase=n.phase.name,
            kind=n.kind.name,
            t_local=n.t_local,
            label=n.label,
            virtual=n.is_virtual,
        )
    for e in graph.edges:
        g.add_edge(
            e.src,
            e.dst,
            kind=e.kind.name,
            weight=e.weight,
            delta_kind=DeltaKind(e.delta.kind).name,
            label=e.label,
        )
    return g


class TestNetworkxExport:
    """The graph agrees with networkx's reading of the same structure."""

    def test_structure_preserved(self):
        import networkx as nx

        g, _ = small_graph()
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == len(g.nodes)
        assert nxg.number_of_edges() == len(g.edges)
        assert nx.is_directed_acyclic_graph(nxg)

    def test_attributes(self):
        g, (s0, e0, s1, e1) = small_graph()
        nxg = to_networkx(g)
        assert nxg.nodes[s0]["kind"] == "SEND"
        assert nxg.nodes[s0]["phase"] == "START"
        assert nxg.nodes[e1]["rank"] == 1
        data = list(nxg.get_edge_data(s0, e1).values())[0]
        assert data["kind"] == "MESSAGE"
        assert data["delta_kind"] == "TRANSFER_OS"

    def test_topological_orders_agree(self, ring_trace):
        import networkx as nx
        from repro.core import build_graph

        g = build_graph(ring_trace).graph
        nxg = to_networkx(g)
        # The same precedence structure: both orders satisfy all edges.
        pos = {n: i for i, n in enumerate(nx.topological_sort(nxg))}
        for e in g.edges:
            assert pos[e.src] < pos[e.dst]

    def test_longest_path_vs_runtimes(self, ring_trace):
        """On the local-edges-only subgraph, networkx's weighted longest
        path equals the slowest rank's runtime (each rank's chain sums to
        exactly its runtime).  On the full graph it can only be larger:
        zero-weight message edges — notably the conservative ack edges,
        which for eager sends point 'backwards' in wall-clock time — let
        paths splice local chains of several ranks."""
        import networkx as nx
        from repro.core import build_graph

        build = build_graph(ring_trace)
        nxg = to_networkx(build.graph)
        runtimes = [evs[-1].t_end - evs[0].t_start for evs in build.events]

        local_only = nx.MultiDiGraph()
        local_only.add_nodes_from(nxg.nodes(data=True))
        for u, v, data in nxg.edges(data=True):
            if data["kind"] == "LOCAL":
                local_only.add_edge(u, v, **data)
        assert nx.dag_longest_path_length(local_only, weight="weight") == pytest.approx(
            max(runtimes)
        )
        assert nx.dag_longest_path_length(nxg, weight="weight") >= max(runtimes)
