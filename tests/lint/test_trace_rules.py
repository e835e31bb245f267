"""Per-rule fixtures for the trace-level rules (MPG0xx).

Each corrupted fixture seeds exactly one defect class, and the test
asserts the report contains findings of exactly that rule id — the
rule pack must neither miss its defect nor cross-fire on another's.
"""

from __future__ import annotations

from repro.lint import LintConfig, Severity, lint_traces
from repro.trace.events import EventKind
from tests.lint.helpers import compute_only, ev, memory_trace, wrap


def rule_ids(report):
    return {f.rule_id for f in report.findings}


class TestMPG001OverlappingEvents:
    def test_overlap_fires_exactly_mpg001(self):
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 5.0),
            ev(0, 1, EventKind.FINALIZE, 3.0, 6.0),  # starts before INIT ended
        ]
        report = lint_traces(memory_trace(events))
        assert rule_ids(report) == {"MPG001"}
        (f,) = report.findings
        assert f.severity == Severity.ERROR
        assert f.rank == 0 and f.seq == 1

    def test_monotone_trace_is_clean(self):
        report = lint_traces(memory_trace(compute_only(0)))
        assert report.findings == []
        assert report.ok


class TestMPG002NegativeTimestamp:
    def test_negative_time_with_zero_declared_offset(self):
        # MemoryTrace metas declare clock_offset 0, which cannot explain
        # negative local time.
        events = [
            ev(0, 0, EventKind.INIT, -5.0, -4.0),
            ev(0, 1, EventKind.FINALIZE, -4.0, -3.0),
        ]
        report = lint_traces(memory_trace(events))
        assert rule_ids(report) == {"MPG002"}
        assert all(f.severity == Severity.ERROR for f in report.findings)

    def test_non_finite_time(self):
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 1.0),
            ev(0, 1, EventKind.FINALIZE, 2.0, float("inf")),
        ]
        report = lint_traces(memory_trace(events))
        assert "MPG002" in rule_ids(report)

    def test_negative_time_with_declared_negative_offset_is_legitimate(self, tmp_path):
        # A file-backed trace whose header declares a negative clock
        # offset makes negative local time expected (§4.1).
        from repro.trace.reader import TraceSet
        from repro.trace.writer import TraceSetWriter

        with TraceSetWriter(tmp_path, "neg", nprocs=1, clock_params={0: (-100.0, 0.0)}) as w:
            w.record(ev(0, 0, EventKind.INIT, -90.0, -89.0))
            w.record(ev(0, 1, EventKind.FINALIZE, -80.0, -79.0))
        report = lint_traces(TraceSet.open(tmp_path, "neg"))
        assert "MPG002" not in rule_ids(report)


class TestMPG003TruncatedTrace:
    def test_sequence_gap(self):
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 1.0),
            ev(0, 2, EventKind.FINALIZE, 1.0, 2.0),  # seq 1 lost
        ]
        report = lint_traces(memory_trace(events))
        assert rule_ids(report) == {"MPG003"}

    def test_empty_rank(self):
        report = lint_traces(memory_trace(compute_only(0), []))
        assert rule_ids(report) == {"MPG003"}
        (f,) = report.findings
        assert f.rank == 1

    def test_event_filed_under_another_rank(self, tmp_path):
        from repro.trace.reader import TraceSet
        from repro.trace.writer import TraceSetWriter

        with TraceSetWriter(tmp_path, "stray", nprocs=2) as w:
            for record in compute_only(0) + compute_only(1):
                w.record(record)
        # Rewrite rank 0's INIT record to claim rank 1 (the rank field
        # follows the kind in a text trace's event array).
        path = next(tmp_path.glob("stray.rank0000.*"))
        header, init, *rest = path.read_text().splitlines()
        fields = init.split(",")
        fields[1] = "1"
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        report = lint_traces(TraceSet.open(tmp_path, "stray"))
        assert rule_ids(report) == {"MPG003"}
        (f,) = report.findings
        assert (f.rank, f.seq) == (0, 0)
        assert "claims rank 1" in f.message


class TestMPG004MissingFraming:
    def test_missing_finalize(self):
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 1.0),
            ev(0, 1, EventKind.BARRIER, 1.0, 2.0, coll_seq=0),
        ]
        report = lint_traces(memory_trace(events))
        assert rule_ids(report) == {"MPG004"}
        assert all(f.severity == Severity.WARNING for f in report.findings)

    def test_missing_init(self):
        events = [
            ev(0, 0, EventKind.BARRIER, 0.0, 1.0, coll_seq=0),
            ev(0, 1, EventKind.FINALIZE, 1.0, 2.0),
        ]
        report = lint_traces(memory_trace(events))
        assert rule_ids(report) == {"MPG004"}


class TestMPG005WaitWithoutRequest:
    def test_wait_on_unknown_request(self):
        inner = [(EventKind.WAIT, 2.0, 3.0, dict(reqs=(9,), completed=(9,)))]
        report = lint_traces(memory_trace(wrap(0, inner)))
        assert rule_ids(report) == {"MPG005"}
        (f,) = report.findings
        assert f.severity == Severity.ERROR

    def test_double_completion(self):
        t0 = wrap(
            0,
            [
                (EventKind.ISEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8, req=1)),
                (EventKind.WAIT, 3.0, 4.0, dict(reqs=(1,), completed=(1,))),
                (EventKind.WAIT, 4.0, 5.0, dict(reqs=(1,), completed=(1,))),
            ],
        )
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=8))])
        report = lint_traces(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG005"}
        assert "already-retired" in report.findings[0].message

    def test_reused_request_id(self):
        t0 = wrap(
            0,
            [
                (EventKind.ISEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8, req=1)),
                (EventKind.ISEND, 3.0, 4.0, dict(peer=1, tag=0, nbytes=8, req=1)),
                (EventKind.WAIT, 4.0, 5.0, dict(reqs=(1,), completed=(1,))),
            ],
        )
        t1 = wrap(
            1,
            [
                (EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=8)),
                (EventKind.RECV, 3.0, 4.0, dict(peer=0, tag=0, nbytes=8)),
            ],
        )
        report = lint_traces(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG005"}
        (f,) = report.findings
        assert f.seq == 2 and "reuses request id 1" in f.message

    def test_completed_ids_not_among_requests(self):
        t0 = wrap(
            0,
            [
                (EventKind.ISEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8, req=1)),
                (EventKind.WAIT, 3.0, 4.0, dict(reqs=(2,), completed=(1,))),
            ],
        )
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=8))])
        report = lint_traces(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG005"}
        (f,) = report.findings
        assert "completed ids [1] not among its requests [2]" in f.message

    def test_missing_request_id(self):
        t0 = wrap(
            0,
            [
                (EventKind.ISEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8, req=-1)),
            ],
        )
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=8))])
        report = lint_traces(memory_trace(t0, t1))
        assert "MPG005" in rule_ids(report)


class TestMPG006UncompletedRequest:
    def test_irecv_never_waited(self):
        t0 = wrap(
            0,
            [
                (EventKind.ISEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8, req=1)),
                (EventKind.WAIT, 3.0, 4.0, dict(reqs=(1,), completed=(1,))),
            ],
        )
        t1 = wrap(1, [(EventKind.IRECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=8, req=5))])
        report = lint_traces(memory_trace(t0, t1))
        assert rule_ids(report) == {"MPG006"}
        (f,) = report.findings
        assert f.severity == Severity.WARNING and f.rank == 1


class TestMPG007ClockSkewOutlier:
    def test_outlier_span_flagged(self):
        report = lint_traces(
            memory_trace(compute_only(0, 100.0), compute_only(1, 110.0), compute_only(2, 900.0))
        )
        assert rule_ids(report) == {"MPG007"}
        (f,) = report.findings
        assert f.rank == 2 and f.severity == Severity.WARNING

    def test_two_ranks_never_flagged(self):
        # no quorum to call either rank the outlier
        report = lint_traces(memory_trace(compute_only(0, 100.0), compute_only(1, 900.0)))
        assert report.findings == []

    def test_tolerance_is_configurable(self):
        traces = [compute_only(0, 100.0), compute_only(1, 100.0), compute_only(2, 160.0)]
        loose = lint_traces(memory_trace(*traces), LintConfig(skew_tolerance=2.0))
        tight = lint_traces(memory_trace(*traces), LintConfig(skew_tolerance=0.25))
        assert loose.findings == []
        assert rule_ids(tight) == {"MPG007"}
