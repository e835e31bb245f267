"""Error paths of the two rank-by-rank engines on malformed traces.

The streaming traversal and the Dimemas replay run on one scheduler
(:class:`repro.core.matching.RankScheduler`), so each must fail loudly
and diagnosably — never hang or silently produce wrong numbers — when
handed traces that do not describe a complete run (§4.3's
precondition).  Every suite below runs on the streaming traversal; its
``...OnReplay`` twin runs the same tests on the replay.
"""

import pytest

from repro.baselines import ReplayParams, replay
from repro.core import BuildConfig, PerturbationSpec, StreamingTraversal
from repro.core.matching import MatchError
from repro.lint import error_line
from repro.noise import Constant, MachineSignature
from repro.trace.events import EventKind, EventRecord
from repro.trace.reader import MemoryTrace


def ev(rank, seq, kind, t0, t1, **kw):
    return EventRecord(rank=rank, seq=seq, kind=kind, t_start=t0, t_end=t1, **kw)


def wrap(rank, inner):
    events = [ev(rank, 0, EventKind.INIT, 0.0, 1.0)]
    t = 1.0
    for kind, kw in inner:
        events.append(ev(rank, len(events), kind, t + 1, t + 2, **kw))
        t += 2
    events.append(ev(rank, len(events), EventKind.FINALIZE, t + 1, t + 2))
    return events


SPEC = PerturbationSpec(MachineSignature(os_noise=Constant(10.0)), seed=0)
#: Both engines send the same messages eagerly: the replay's default
#: eager threshold is the streaming build's too.
EAGER = ReplayParams().eager_threshold


def run_streaming(traces):
    return StreamingTraversal(SPEC, config=BuildConfig(eager_threshold=EAGER)).run(traces)


def run_replay(traces):
    return replay(traces, ReplayParams())


@pytest.fixture
def engine():
    """``engine(traces)`` runs the engine under test: the streaming
    traversal here, the Dimemas replay in the :class:`OnReplay` suites."""
    return run_streaming


class OnReplay:
    """Mixed into a suite, runs its tests on the Dimemas replay."""

    @pytest.fixture
    def engine(self):
        return run_replay


class TestStalls:
    def test_missing_sender(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.RECV, dict(peer=1, tag=0))]),
                wrap(1, []),
            ]
        )
        with pytest.raises(MatchError, match="stalled"):
            engine(traces)

    def test_missing_collective_participant(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.BARRIER, dict(coll_seq=0))]),
                wrap(1, []),
            ]
        )
        with pytest.raises(MatchError, match="stalled"):
            engine(traces)

    def test_stall_message_names_blockers(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.RECV, dict(peer=1, tag=7))]),
                wrap(1, []),
            ]
        )
        with pytest.raises(MatchError) as exc:
            engine(traces)
        assert "rank 0" in str(exc.value)
        assert "data" in str(exc.value)


class TestHardErrors:
    def test_unknown_request_completion(self, engine):
        traces = MemoryTrace(
            [wrap(0, [(EventKind.WAIT, dict(reqs=(9,), completed=(9,)))])]
        )
        with pytest.raises(MatchError, match="unknown request"):
            engine(traces)

    def test_unknown_request_names_mpg005(self, engine):
        traces = MemoryTrace(
            [wrap(0, [(EventKind.WAIT, dict(reqs=(9,), completed=(9,)))])]
        )
        with pytest.raises(MatchError) as exc:
            engine(traces)
        assert (exc.value.code, exc.value.rank, exc.value.seq) == ("wait-without-request", 0, 1)
        assert error_line(exc.value).startswith("MPG005 [wait-without-request] rank 0, event #1:")

    def test_collective_kind_mismatch(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.BARRIER, dict(coll_seq=0))]),
                wrap(1, [(EventKind.ALLREDUCE, dict(coll_seq=0, nbytes=8))]),
            ]
        )
        with pytest.raises(MatchError, match="inconsistent") as exc:
            engine(traces)
        assert exc.value.code == "collective-mismatch"

    def test_collective_root_mismatch(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.BCAST, dict(coll_seq=0, root=0, nbytes=8))]),
                wrap(1, [(EventKind.BCAST, dict(coll_seq=0, root=1, nbytes=8))]),
            ]
        )
        with pytest.raises(MatchError, match="inconsistent") as exc:
            engine(traces)
        assert (exc.value.code, exc.value.rank, exc.value.seq) == ("collective-mismatch", 1, 1)

    def test_receive_size_differs_from_send(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.SEND, dict(peer=1, tag=0, nbytes=8))]),
                wrap(1, [(EventKind.RECV, dict(peer=0, tag=0, nbytes=16))]),
            ]
        )
        with pytest.raises(MatchError, match="receives 16 B") as exc:
            engine(traces)
        assert (exc.value.code, exc.value.rank, exc.value.seq) == ("unmatched-endpoint", 1, 1)


IRECV_WITH_SEND = MemoryTrace(
    [
        wrap(0, [(EventKind.IRECV, dict(peer=1, tag=0, nbytes=8, req=0))]),
        wrap(1, [(EventKind.SEND, dict(peer=0, tag=0, nbytes=8))]),
    ]
)


class TestUnpairedTransfers:
    """A transfer that loses a half without stalling any rank: the
    traversal finishes and then refuses, naming the first leftover, the
    way the in-core matcher does."""

    def test_eager_send_without_receive(self, engine):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.SEND, dict(peer=1, tag=0, nbytes=8))]),
                wrap(1, []),
            ]
        )
        with pytest.raises(MatchError, match="1 unpaired pairwise event") as exc:
            engine(traces)
        assert (exc.value.code, exc.value.rank, exc.value.seq) == ("unmatched-endpoint", 0, 1)

    def test_uncompleted_irecv_without_send(self, engine):
        traces = MemoryTrace(
            [wrap(0, [(EventKind.IRECV, dict(peer=1, tag=0, nbytes=8, req=0))]), wrap(1, [])]
        )
        with pytest.raises(MatchError, match="recv") as exc:
            engine(traces)
        assert (exc.value.code, exc.value.rank, exc.value.seq) == ("unmatched-endpoint", 0, 1)

    def test_uncompleted_irecv_with_send_is_paired(self, engine):
        engine(IRECV_WITH_SEND)


class TestWarnings:
    def test_uncompleted_request_warned_not_fatal(self):
        traces = MemoryTrace(
            [
                wrap(0, [(EventKind.ISEND, dict(peer=1, tag=0, nbytes=8, req=0))]),
                wrap(1, [(EventKind.RECV, dict(peer=0, tag=0, nbytes=8))]),
            ]
        )
        res = StreamingTraversal(SPEC).run(traces)
        assert any("never completed" in w for w in res.warnings)
        assert len(res.final_delay) == 2

    def test_uncompleted_irecv_warned(self):
        res = run_streaming(IRECV_WITH_SEND)
        assert any("never completed" in w for w in res.warnings)


class TestStallsOnReplay(OnReplay, TestStalls):
    pass


class TestHardErrorsOnReplay(OnReplay, TestHardErrors):
    pass


class TestUnpairedTransfersOnReplay(OnReplay, TestUnpairedTransfers):
    pass
