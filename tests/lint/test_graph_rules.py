"""Per-rule fixtures for the graph-level rules (MPG1xx).

MPG101/104/105 are exercised on hand-built graphs (the builder refuses
to produce these defects, which is the point — the linter must catch
graphs from any source); MPG102/103 are exercised end-to-end through
``lint_run`` on traces the matcher rejects.
"""

from __future__ import annotations

import math

from repro.core.graph import EdgeKind, MessagePassingGraph, Phase
from repro.lint import Severity, lint_build, lint_run
from repro.trace.events import EventKind
from tests.lint.helpers import memory_trace, wrap


def rule_ids(report):
    return {f.rule_id for f in report.findings}


def chain_graph(n=3):
    """A one-rank chain of subevent nodes: n0 -> n1 -> ... (valid DAG)."""
    g = MessagePassingGraph(1)
    ids = [
        g.add_node(0, seq, Phase.START if seq % 2 == 0 else Phase.END, EventKind.INIT, float(seq))
        for seq in range(n)
    ]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b, EdgeKind.LOCAL, 1.0)
    return g, ids


class TestMPG101GraphCycle:
    def test_cycle_fires_exactly_mpg101(self):
        g, ids = chain_graph(3)
        g.add_edge(ids[-1], ids[0], EdgeKind.MESSAGE, 0.0)  # closes the loop
        report = lint_build(g)
        assert rule_ids(report) == {"MPG101"}
        (f,) = report.findings
        assert f.severity == Severity.ERROR
        assert "not a DAG" in f.message
        assert "r0#" in f.message  # names concrete cycle members

    def test_names_a_real_cycle_upstream_of_the_first_unfreed_node(self):
        """r1#0.S <-> r1#0.E feeds r0#0.S: the lowest unfreed node sits
        downstream of the cycle, and the finding still names the cycle."""
        g = MessagePassingGraph(2)
        r0s = g.add_node(0, 0, Phase.START, EventKind.INIT, 0.0)
        r1s = g.add_node(1, 0, Phase.START, EventKind.INIT, 0.0)
        r1e = g.add_node(1, 0, Phase.END, EventKind.INIT, 1.0)
        g.add_edge(r1s, r1e, EdgeKind.LOCAL, 1.0)
        g.add_edge(r1e, r1s, EdgeKind.LOCAL, 1.0)
        g.add_edge(r1e, r0s, EdgeKind.MESSAGE, 0.0)
        (f,) = lint_build(g).findings
        assert f.rule_id == "MPG101"
        assert f.message.endswith("one cycle: r1#0.S -> r1#0.E")
        assert "3 node(s) lie on or downstream of a cycle" in f.message

    def test_dag_is_clean(self):
        g, _ = chain_graph(3)
        report = lint_build(g)
        assert report.findings == []
        assert report.graph_checked


class TestMPG102UnmatchedEndpoint:
    def test_send_without_receive(self):
        t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=7, nbytes=64))])
        t1 = wrap(1, [])
        report = lint_run(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG102"}
        (f,) = report.findings
        assert f.severity == Severity.ERROR
        assert "0->1 tag 7" in f.message
        assert "1 send(s) but 0 receive(s)" in f.message

    def test_receive_without_send(self):
        t0 = wrap(0, [])
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=64))])
        report = lint_run(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG102"}
        assert "0 send(s) but 1 receive(s)" in report.findings[0].message

    def test_sendrecv_counts_on_both_channels(self):
        def sendrecv(peer):
            return dict(peer=peer, tag=0, nbytes=8, recv_peer=peer, recv_tag=0, recv_nbytes=8)

        t0 = wrap(0, [(EventKind.SENDRECV, 2.0, 3.0, sendrecv(1))])
        t1 = wrap(1, [(EventKind.SENDRECV, 2.0, 3.0, sendrecv(0))])
        report = lint_run(memory_trace(t0, t1))
        assert report.findings == []
        assert report.graph_checked


class TestMPG103CollectiveMismatch:
    def test_count_mismatch(self):
        t0 = wrap(0, [(EventKind.BARRIER, 2.0, 3.0, dict(coll_seq=0))])
        t1 = wrap(1, [])
        report = lint_run(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG103"}
        (f,) = report.findings
        assert f.rank == 1

    def test_kind_mismatch(self):
        t0 = wrap(0, [(EventKind.BARRIER, 2.0, 3.0, dict(coll_seq=0))])
        t1 = wrap(1, [(EventKind.ALLREDUCE, 2.0, 3.0, dict(coll_seq=0, nbytes=8))])
        report = lint_run(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG103"}
        (f,) = report.findings
        assert (f.rank, f.seq) == (1, 1)
        assert "rank 0 called BARRIER, rank 1 called ALLREDUCE" in f.message

    def test_root_mismatch(self):
        t0 = wrap(0, [(EventKind.BCAST, 2.0, 3.0, dict(coll_seq=0, root=0, nbytes=8))])
        t1 = wrap(1, [(EventKind.BCAST, 2.0, 3.0, dict(coll_seq=0, root=1, nbytes=8))])
        report = lint_run(memory_trace(t0, t1))
        assert "MPG103" in rule_ids(report)
        assert any("root" in f.message for f in report.findings)


class TestMPG104InvalidEdgeWeight:
    def test_nan_local_edge(self):
        g, ids = chain_graph(3)
        g.add_edge(ids[0], ids[2], EdgeKind.LOCAL, math.nan)
        report = lint_build(g)
        assert rule_ids(report) == {"MPG104"}
        (f,) = report.findings
        assert f.severity == Severity.ERROR
        assert f.edge == (ids[0], ids[2])

    def test_nan_message_edge(self):
        g, ids = chain_graph(3)
        g.add_edge(ids[0], ids[2], EdgeKind.MESSAGE, math.nan)
        report = lint_build(g)
        assert rule_ids(report) == {"MPG104"}

    def test_zero_weight_message_edge_is_fine(self):
        g, ids = chain_graph(3)
        g.add_edge(ids[0], ids[2], EdgeKind.MESSAGE, 0.0)
        report = lint_build(g)
        assert report.findings == []


class TestMPG105OrphanNode:
    def test_isolated_virtual_node(self):
        g, _ = chain_graph(3)
        orphan = g.add_node(-1, -1, Phase.VIRTUAL, EventKind.BARRIER, math.nan, label="hub")
        report = lint_build(g)
        assert rule_ids(report) == {"MPG105"}
        (f,) = report.findings
        assert f.severity == Severity.WARNING
        assert f.node == orphan
        assert "hub" in f.message

    def test_isolated_subevent(self):
        g, _ = chain_graph(2)
        g.add_node(0, 5, Phase.START, EventKind.SEND, 9.0)
        report = lint_build(g)
        assert rule_ids(report) == {"MPG105"}


class TestCleanRun:
    def test_matched_traces_pass_all_graph_rules(self):
        t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=64))])
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=64))])
        report = lint_run(memory_trace(t0, t1))
        assert report.findings == []
        assert report.graph_checked
        assert set(report.rules_run) >= {"MPG001", "MPG101", "MPG105"}
