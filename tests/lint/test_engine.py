"""Engine behaviour: configuration, emission caps, guarded builds,
and the registry's catalog invariants.
"""

from __future__ import annotations

import pytest

from repro.core.builder import build_graph
from repro.core.diagnostics import CODES, DiagnosticError
from repro.lint import (
    LintConfig,
    Severity,
    all_rules,
    get_rule,
    lint_build,
    lint_run,
    lint_traces,
    rule_for_code,
)
from repro.lint.engine import LintContext, run_rules
from repro.trace.events import EventKind
from tests.lint.helpers import compute_only, ev, memory_trace, wrap


def overlapping(rank=0, n_overlaps=5):
    """Events that all start inside the long INIT event."""
    events = [ev(rank, 0, EventKind.INIT, 0.0, 100.0)]
    for i in range(1, n_overlaps):
        events.append(
            ev(rank, i, EventKind.SEND, float(i), float(i + 1), peer=rank, tag=0, nbytes=8)
        )
    events.append(
        ev(rank, n_overlaps, EventKind.FINALIZE, float(n_overlaps), float(n_overlaps + 1))
    )
    return events


def overlap_trace(n_overlaps=5):
    """One rank whose events all start inside the long INIT event."""
    return memory_trace(overlapping(0, n_overlaps))


def matched_trace():
    t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=64))])
    t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=64))])
    return memory_trace(t0, t1)


class TestRegistry:
    def test_catalog_shape(self):
        rules = all_rules()
        assert len(rules) == 25  # 12 trace/graph + 6 diagnosis + 7 verify
        assert [r.id for r in rules] == sorted({r.id for r in rules})
        assert all(r.code in CODES for r in rules)
        assert all(r.category in ("trace", "graph", "diagnosis", "verify") for r in rules)
        assert all(r.summary and r.rationale for r in rules)

    def test_categories_split(self):
        assert [r.id for r in all_rules("trace")] == [f"MPG00{i}" for i in range(1, 8)]
        assert [r.id for r in all_rules("graph")] == [f"MPG10{i}" for i in range(1, 6)]
        assert [r.id for r in all_rules("diagnosis")] == [
            "MPG200", "MPG201", "MPG202", "MPG210", "MPG211", "MPG212",
        ]
        assert [r.id for r in all_rules("verify")] == [
            "MPG300", "MPG301", "MPG302", "MPG303", "MPG310", "MPG311", "MPG312",
        ]

    def test_lookup(self):
        assert get_rule("MPG001").code == "overlapping-events"
        assert rule_for_code("graph-cycle").id == "MPG101"
        assert rule_for_code("invalid-gap") is None  # runtime-only code
        with pytest.raises(KeyError):
            get_rule("MPG999")


class TestConfig:
    def test_disable_rule(self):
        report = lint_traces(overlap_trace(), LintConfig(disabled=("MPG001",)))
        assert report.findings == []
        assert "MPG001" not in report.rules_run
        assert "MPG002" in report.rules_run

    def test_severity_override_promotes(self):
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 1.0),
            ev(0, 1, EventKind.SEND, 1.0, 2.0, peer=0, tag=0, nbytes=8),
        ]
        config = LintConfig(severity_overrides={"MPG004": Severity.ERROR})
        report = lint_traces(memory_trace(events), config)
        assert [f.rule_id for f in report.findings] == ["MPG004"]
        assert report.findings[0].severity == Severity.ERROR
        assert not report.ok

    def test_severity_override_demotes(self):
        config = LintConfig(severity_overrides={"MPG001": Severity.INFO})
        report = lint_traces(overlap_trace(), config)
        assert report.findings
        assert all(f.severity == Severity.INFO for f in report.findings)
        assert report.ok

    def test_emission_cap_and_suppression_notice(self):
        report = lint_traces(overlap_trace(6), LintConfig(max_findings_per_rule=3))
        mpg1 = [f for f in report.findings if f.rule_id == "MPG001"]
        assert len(mpg1) == 4  # 3 findings + 1 suppression notice
        assert sum("suppressed" in f.message for f in mpg1) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LintConfig(skew_tolerance=0.0)
        with pytest.raises(ValueError):
            LintConfig(max_findings_per_rule=0)


class TestGuardedBuild:
    def test_build_error_covered_by_rule_finding_not_duplicated(self):
        # Unmatched send: MPG102 reports it AND the build fails with the
        # same diagnostics code -- the report must carry it once.
        t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8))])
        report = lint_run(memory_trace(t0, wrap(1, [])))
        assert [f.rule_id for f in report.findings] == ["MPG102"]
        assert not report.graph_checked

    def test_size_mismatch_surfaces_as_mpg102(self):
        # Counts agree, so only the guarded build sees the mismatch.
        t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=64))])
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=32))])
        report = lint_run(memory_trace(t0, t1))
        (f,) = report.findings
        assert (f.rule_id, f.code, f.rank, f.seq) == ("MPG102", "unmatched-endpoint", 1, 1)
        assert "graph build failed" in f.message and "receives 32 B" in f.message

    def test_build_error_becomes_owner_rule_finding(self, monkeypatch):
        def boom(source, config=None):
            raise DiagnosticError("synthetic cycle", code="graph-cycle", rank=1, seq=4)

        monkeypatch.setattr("repro.lint.engine.build_graph", boom)
        report = lint_run(matched_trace())
        (f,) = report.findings
        assert f.rule_id == "MPG101" and f.code == "graph-cycle"
        assert f.rank == 1 and f.seq == 4
        assert "graph build failed" in f.message

    def test_unowned_build_error_becomes_mpg000(self, monkeypatch):
        def boom(source, config=None):
            raise DiagnosticError("bad gap", code="invalid-gap", rank=0, seq=2)

        monkeypatch.setattr("repro.lint.engine.build_graph", boom)
        report = lint_run(matched_trace())
        (f,) = report.findings
        assert f.rule_id == "MPG000" and f.code == "invalid-gap"
        assert f.severity == Severity.ERROR

    def test_lint_build_accepts_build_result(self):
        result = build_graph(matched_trace())
        report = lint_build(result)
        assert report.findings == []
        assert report.graph_checked
        assert report.nprocs == 2


class OneRankAtATime:
    """A trace source that hands out single ranks and refuses ``load_all``."""

    def __init__(self, trace):
        self._trace = trace
        self.nprocs = trace.nprocs
        self.reads = []

    def meta(self, rank):
        return self._trace.meta(rank)

    def events_of(self, rank):
        self.reads.append(rank)
        return self._trace.events_of(rank)

    def load_all(self):
        raise AssertionError("the trace pack loaded every rank at once")


class TestRankAtATime:
    """The trace pack reads a trace source once, one rank at a time, and
    reports exactly what a run over the whole in-memory trace reports."""

    PER_RANK = [
        overlapping(0, 5),
        overlapping(1, 5),
        compute_only(2),
        compute_only(3),
        compute_only(4, span=1000.0),  # MPG007 outlier among five spans
        [],  # MPG003: no events
    ]

    @pytest.mark.parametrize("cap", [2, 6, 100])  # cap inside rank 0, across ranks, none
    def test_same_report_as_whole_trace(self, cap):
        config = LintConfig(max_findings_per_rule=cap)
        source = OneRankAtATime(memory_trace(*self.PER_RANK))
        report = lint_traces(source, config)
        whole = run_rules(LintContext(per_rank=self.PER_RANK), config, ("trace",))
        assert source.reads == list(range(len(self.PER_RANK)))
        assert report.findings == whole.findings
        assert report.summary() == whole.summary()
        assert {"MPG001", "MPG003", "MPG007"} <= set(report.counts())


class TestReportShape:
    def test_summary_and_counts(self):
        report = lint_run(matched_trace())
        assert report.counts() == {}
        assert "2 ranks" in report.summary()
        assert "graph checked" in report.summary()

    def test_findings_sorted_errors_first(self):
        # missing FINALIZE (warning) + overlap (error) in one trace
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 10.0),
            ev(0, 1, EventKind.SEND, 1.0, 2.0, peer=0, tag=0, nbytes=8),
        ]
        report = lint_traces(memory_trace(events))
        severities = [f.severity for f in report.findings]
        assert severities == sorted(severities, reverse=True)
        assert {f.rule_id for f in report.findings} == {"MPG001", "MPG004"}
