"""Trace validation: the front door every trace-reading CLI passes.

The builder assumes (§4.3) "the program did run correctly in the first
place".  The trace-level lint rules (MPG0xx) are the one check of that
precondition: an ERROR finding refuses the run under every ``--lint``
mode, a WARNING only gets logged, and a defect only the build can see
(a channel or collective that does not pair up) ends the run with one
line naming its rule — never a traceback.
"""

import logging
from argparse import Namespace

import pytest

from repro.cli import _door
from repro.trace.events import EventKind
from repro.trace.reader import MemoryTrace
from tests.lint.helpers import ev, wrap


@pytest.fixture(autouse=True)
def _log_level(caplog):
    """Capture the gate's log whatever level an earlier CLI run left set."""
    caplog.set_level(logging.INFO, logger="repro")


def gate(trace, lint="warn"):
    """Take ``trace`` through the CLI's front door, as ``--lint`` says,
    and build the graph it hands over."""
    with _door(Namespace(lint=lint), trace) as run:
        return run.build


def refused(trace, lint="warn"):
    """The one-line refusal the gate exits with."""
    with pytest.raises(SystemExit) as exc:
        gate(trace, lint)
    return str(exc.value.code)


class TestValidRuns:
    def test_simulator_output_is_valid(self, ring_trace, caplog):
        build = gate(ring_trace)
        assert build.graph.nprocs == 4
        assert not [r for r in caplog.records if "lint MPG" in r.message]

    def test_blocking_pair(self):
        t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8))])
        t1 = wrap(1, [(EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0, nbytes=8))])
        assert gate(MemoryTrace([t0, t1]), lint="strict").graph.nprocs == 2


class TestPerRankErrors:
    def test_non_dense_seq(self):
        events = [
            ev(0, 0, EventKind.INIT, 0.0, 1.0),
            ev(0, 2, EventKind.FINALIZE, 1.0, 2.0),
        ]
        for lint in ("off", "warn", "strict"):  # an ERROR refuses under every mode
            assert "MPG003" in refused(MemoryTrace([events]), lint)

    def test_time_backwards(self):
        events = [
            ev(0, 0, EventKind.INIT, 5.0, 6.0),
            ev(0, 1, EventKind.FINALIZE, 2.0, 7.0),
        ]
        assert "(MPG001)" in refused(MemoryTrace([events]))

    def test_unknown_request_completed(self):
        inner = [(EventKind.WAIT, 2.0, 3.0, dict(reqs=(9,), completed=(9,)))]
        message = refused(MemoryTrace([wrap(0, inner)]))
        assert "(MPG005)" in message and "unknown request" in message

    def test_duplicate_request_id(self):
        inner = [
            (EventKind.ISEND, 2.0, 3.0, dict(peer=1, tag=0, req=1)),
            (EventKind.ISEND, 3.0, 4.0, dict(peer=1, tag=0, req=1)),
        ]
        other = wrap(1, [
            (EventKind.RECV, 2.0, 3.0, dict(peer=0, tag=0)),
            (EventKind.RECV, 3.0, 4.0, dict(peer=0, tag=0)),
        ])
        assert "reuses request id 1" in refused(MemoryTrace([wrap(0, inner), other]))

    def test_double_completion(self):
        inner = [
            (EventKind.IRECV, 2.0, 3.0, dict(peer=1, tag=0, req=0)),
            (EventKind.WAIT, 3.0, 4.0, dict(reqs=(0,), completed=(0,))),
            (EventKind.WAIT, 4.0, 5.0, dict(reqs=(0,), completed=(0,))),
        ]
        other = wrap(1, [(EventKind.SEND, 2.0, 3.0, dict(peer=0, tag=0))])
        assert "already-retired" in refused(MemoryTrace([wrap(0, inner), other]))

    def test_never_completed_warns(self, caplog):
        inner = [(EventKind.IRECV, 2.0, 3.0, dict(peer=1, tag=0, req=0))]
        other = wrap(1, [(EventKind.SEND, 2.0, 3.0, dict(peer=0, tag=0))])
        gate(MemoryTrace([wrap(0, inner), other]))  # warning, not refusal
        assert any("lint MPG006" in r.message for r in caplog.records)

    def test_missing_init_finalize_warns(self, caplog):
        events = [ev(0, 0, EventKind.BARRIER, 0.0, 1.0, coll_seq=0)]
        gate(MemoryTrace([events]))
        logged = [r.message for r in caplog.records if "lint MPG004" in r.message]
        assert len(logged) == 2  # each finding logged once
        assert any("not INIT" in m for m in logged)
        assert any("not FINALIZE" in m for m in logged)


class TestCrossRankErrors:
    def test_channel_count_mismatch(self):
        t0 = wrap(0, [(EventKind.SEND, 2.0, 3.0, dict(peer=1, tag=0, nbytes=8))])
        t1 = wrap(1, [])
        message = refused(MemoryTrace([t0, t1]))
        assert message.startswith("MPG102 [unmatched-endpoint] rank 0, event #1:")

    def test_collective_count_mismatch(self):
        t0 = wrap(0, [(EventKind.BARRIER, 2.0, 3.0, dict(coll_seq=0))])
        t1 = wrap(1, [])
        assert refused(MemoryTrace([t0, t1])).startswith("MPG103 [collective-mismatch]")

    def test_collective_kind_mismatch(self):
        t0 = wrap(0, [(EventKind.BARRIER, 2.0, 3.0, dict(coll_seq=0))])
        t1 = wrap(1, [(EventKind.ALLREDUCE, 2.0, 3.0, dict(coll_seq=0))])
        assert refused(MemoryTrace([t0, t1])).startswith("MPG103 [collective-mismatch]")
        assert "rank 0 called BARRIER" in refused(MemoryTrace([t0, t1]), lint="strict")

    def test_collective_root_mismatch(self):
        t0 = wrap(0, [(EventKind.BCAST, 2.0, 3.0, dict(coll_seq=0, root=0))])
        t1 = wrap(1, [(EventKind.BCAST, 2.0, 3.0, dict(coll_seq=0, root=1))])
        assert "rank 0 says root 0" in refused(MemoryTrace([t0, t1]), lint="strict")

    def test_sendrecv_counted_on_both_channels(self):
        def sendrecv(peer):
            return dict(peer=peer, tag=0, nbytes=8, recv_peer=peer, recv_tag=0, recv_nbytes=8)

        t0 = wrap(0, [(EventKind.SENDRECV, 2.0, 3.0, sendrecv(1))])
        t1 = wrap(1, [(EventKind.SENDRECV, 2.0, 3.0, sendrecv(0))])
        assert gate(MemoryTrace([t0, t1]), lint="strict").graph.nprocs == 2


class TestReport:
    def test_raise_if_invalid(self):
        # The refusal names every failing rule and the first finding's location.
        events = [
            ev(0, 0, EventKind.INIT, 5.0, 6.0),
            ev(0, 2, EventKind.FINALIZE, 2.0, 7.0),
        ]
        message = refused(MemoryTrace([events]), lint="off")
        assert message.startswith("repro-lint found 2 ERROR finding(s) (MPG001, MPG003)")
        assert "first: MPG001 [overlapping-events] rank 0, event #2:" in message

    def test_summary_counts(self, ring_trace, caplog):
        gate(ring_trace)
        assert any(
            "4 ranks" in r.message and "0 error(s)" in r.message for r in caplog.records
        )
