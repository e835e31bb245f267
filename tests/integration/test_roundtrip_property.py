"""Property tests over random valid runs: file round trips and
pipeline invariants that must hold for ANY simulator-producible trace."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lint import lint_run
from repro.mpisim import run
from repro.mpisim.engine import Engine
from repro.mpisim.tracing import FileCollector
from repro.trace.reader import TraceSet
from repro.trace.stats import trace_stats

from tests.conftest import plan_program

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


@given(plan=_plans, p=st.integers(2, 4), binary=st.booleans())
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_file_round_trip_property(plan, p, binary, tmp_path_factory):
    """Trace files round-trip every event of any run bit-exactly, in
    both codecs."""
    tmp = tmp_path_factory.mktemp("rt")
    mem = run(plan_program(plan), nprocs=p, seed=1)

    collector = FileCollector(tmp, "x", p, binary=binary)
    engine = Engine(plan_program(plan), p, trace_hook=collector.hook, seed=1)
    engine.run()
    collector.close()
    from_disk = TraceSet.open(tmp, "x")
    for rank in range(p):
        assert list(from_disk.events_of(rank)) == list(mem.trace.events_of(rank))


@given(plan=_plans, p=st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_every_run_validates_and_balances(plan, p):
    """Any simulator-produced trace passes structural validation, and its
    traffic accounting balances (bytes sent == bytes received)."""
    trace = run(plan_program(plan), nprocs=p, seed=2).trace
    report = lint_run(trace)
    assert report.ok, [f.message for f in report.errors[:3]]
    stats = trace_stats(trace)
    assert sum(r.bytes_sent for r in stats.ranks) == sum(
        r.bytes_received for r in stats.ranks
    )
    assert sum(r.messages_sent for r in stats.ranks) == sum(
        r.messages_received for r in stats.ranks
    )


@given(plan=_plans, p=st.integers(2, 4), seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_simulator_deterministic_property(plan, p, seed):
    a = run(plan_program(plan), nprocs=p, seed=seed)
    b = run(plan_program(plan), nprocs=p, seed=seed)
    assert a.finish_times == b.finish_times
    for rank in range(p):
        assert list(a.trace.events_of(rank)) == list(b.trace.events_of(rank))
