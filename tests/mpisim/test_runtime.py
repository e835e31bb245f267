"""Tests for the run()/run_to_files() wrappers and Machine config."""

import pytest

from repro.lint import lint_run
from repro.mpisim import Compute, LocalClock, Machine, Recv, Send, run, run_to_files
from repro.noise import Constant, DistributionNoise
from repro.trace.reader import MemoryTrace, TraceSet


def simple(me):
    if me.rank == 0:
        yield Compute(1000.0)
        yield Send(dest=1, nbytes=32)
    else:
        yield Recv(source=0)


class TestMachine:
    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(nprocs=0)
        with pytest.raises(ValueError):
            Machine(nprocs=2, clocks=(LocalClock(),))
        with pytest.raises(ValueError):
            Machine(nprocs=2, noise=(DistributionNoise(Constant(1.0)),))

    def test_resolved_clocks_default_perfect(self):
        m = Machine(nprocs=3)
        clocks = m.resolved_clocks()
        assert len(clocks) == 3
        assert all(c.offset == 0.0 for c in clocks)

    def test_with_skewed_clocks(self):
        m = Machine(nprocs=4).with_skewed_clocks(seed=5)
        assert len(m.clocks) == 4
        assert any(c.offset != 0.0 for c in m.clocks)
        assert m.with_skewed_clocks(seed=5).clocks == m.clocks  # deterministic


class TestRun:
    def test_returns_trace_and_times(self):
        res = run(simple, nprocs=2, seed=0)
        assert res.nprocs == 2
        assert len(res.finish_times) == 2
        assert res.makespan == max(res.finish_times)
        assert isinstance(res.trace, MemoryTrace)
        assert res.events_processed > 0

    def test_no_trace_mode(self):
        res = run(simple, nprocs=2, seed=0, trace=False)
        assert res.trace is None

    def test_requires_nprocs_or_machine(self):
        with pytest.raises(ValueError):
            run(simple)

    def test_nprocs_machine_consistency(self):
        with pytest.raises(ValueError):
            run(simple, nprocs=3, machine=Machine(nprocs=2))

    def test_skewed_clocks_affect_trace_not_times(self):
        quiet = run(simple, machine=Machine(nprocs=2), seed=0)
        skewed = run(simple, machine=Machine(nprocs=2).with_skewed_clocks(3), seed=0)
        assert quiet.finish_times == skewed.finish_times  # virtual time identical
        q0 = next(iter(quiet.trace.events_of(0)))
        s0 = next(iter(skewed.trace.events_of(0)))
        assert q0.t_start != s0.t_start  # local timestamps differ


class TestRunToFiles:
    @pytest.mark.parametrize("binary", [False, True])
    def test_writes_valid_trace_files(self, tmp_path, binary):
        res = run_to_files(
            simple, tmp_path, "s", nprocs=2, seed=0, binary=binary, program_name="simple"
        )
        assert isinstance(res.trace, TraceSet)
        report = lint_run(res.trace)
        assert report.ok
        assert res.trace.meta(0).program == "simple"

    def test_file_trace_equals_memory_trace(self, tmp_path):
        mem = run(simple, nprocs=2, seed=4)
        fil = run_to_files(simple, tmp_path, "x", nprocs=2, seed=4)
        assert mem.finish_times == fil.finish_times
        for rank in range(2):
            assert list(mem.trace.events_of(rank)) == list(fil.trace.events_of(rank))

    def test_buffering_parameter(self, tmp_path):
        res = run_to_files(simple, tmp_path, "b", nprocs=2, seed=0, buffer_events=1)
        assert lint_run(res.trace).ok
