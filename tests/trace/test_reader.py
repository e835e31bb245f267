"""Tests for streaming trace readers."""

import pytest

from repro.trace.events import EventKind, EventRecord, TraceMeta
from repro.trace.reader import (
    MemoryTrace,
    TraceReader,
    TraceSet,
    find_trace_files,
)
from repro.trace.writer import TraceSetWriter, TraceWriter


def make_events(rank, n):
    return [
        EventRecord(rank=rank, seq=i, kind=EventKind.RECV, t_start=float(i), t_end=float(i) + 0.25)
        for i in range(n)
    ]


def write_set(tmp_path, stem, nprocs, per_rank=4, binary=False):
    with TraceSetWriter(tmp_path, stem, nprocs=nprocs, binary=binary) as ws:
        for r in range(nprocs):
            for e in make_events(r, per_rank):
                ws.record(e)
    return ws.paths()


class TestTraceReader:
    def test_streams_lazily(self, tmp_path):
        path = write_set(tmp_path, "a", 1, per_rank=10)[0]
        reader = TraceReader(path)
        it = reader.events()
        first = next(it)
        assert first.seq == 0
        assert len(list(it)) == 9

    def test_multiple_iterations_independent(self, tmp_path):
        path = write_set(tmp_path, "a", 1)[0]
        reader = TraceReader(path)
        assert list(reader.events()) == list(reader.events())

    def test_binary_sniffing(self, tmp_path):
        # A binary trace with an unusual extension is still detected.
        meta = TraceMeta(rank=0, nprocs=1)
        odd = tmp_path / "weird.dat"
        with TraceWriter(odd, meta, binary=True) as w:
            w.record_all(make_events(0, 3))
        reader = TraceReader(odd)
        assert reader.binary
        assert len(list(reader.events())) == 3


class TestTraceSet:
    def test_open_by_stem(self, tmp_path):
        write_set(tmp_path, "app", 3)
        ts = TraceSet.open(tmp_path, "app")
        assert ts.nprocs == 3
        assert [len(list(ts.events_of(r))) for r in range(3)] == [4, 4, 4]

    def test_open_binary(self, tmp_path):
        write_set(tmp_path, "b", 2, binary=True)
        ts = TraceSet.open(tmp_path, "b")
        assert ts.nprocs == 2

    def test_load_all(self, tmp_path):
        write_set(tmp_path, "app", 2, per_rank=3)
        ts = TraceSet.open(tmp_path, "app")
        all_events = ts.load_all()
        assert [len(evs) for evs in all_events] == [3, 3]

    def test_missing_rank_rejected(self, tmp_path):
        paths = write_set(tmp_path, "app", 3)
        paths[1].unlink()
        with pytest.raises(ValueError, match="expected ranks"):
            TraceSet.open(tmp_path, "app")

    def test_nprocs_disagreement_rejected(self, tmp_path):
        write_set(tmp_path, "x", 2)
        # Forge a rank-1 file claiming nprocs=3.
        bogus = tmp_path / "x.rank0001.trace.jsonl"
        bogus.unlink()
        with TraceWriter(bogus, TraceMeta(rank=1, nprocs=3)) as w:
            w.record_all(make_events(1, 1))
        with pytest.raises(ValueError):
            TraceSet.open(tmp_path, "x")

    def test_no_files_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceSet.open(tmp_path, "nothing")

    def test_find_trace_files_sorted(self, tmp_path):
        write_set(tmp_path, "app", 12)
        files = find_trace_files(tmp_path, "app")
        assert len(files) == 12
        assert "rank0000" in files[0].name and "rank0011" in files[-1].name

    def test_stem_isolation(self, tmp_path):
        write_set(tmp_path, "one", 2)
        write_set(tmp_path, "two", 3)
        assert TraceSet.open(tmp_path, "one").nprocs == 2
        assert TraceSet.open(tmp_path, "two").nprocs == 3


class TestMemoryTrace:
    def test_basic(self):
        mt = MemoryTrace([make_events(0, 2), make_events(1, 3)])
        assert mt.nprocs == 2
        assert len(list(mt.events_of(1))) == 3
        assert mt.meta(1).rank == 1

    def test_rejects_misfiled_events(self):
        with pytest.raises(ValueError, match="filed under"):
            MemoryTrace([make_events(1, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MemoryTrace([])

    def test_load_all_copies(self):
        mt = MemoryTrace([make_events(0, 2)])
        a = mt.load_all()
        a[0].clear()
        assert len(list(mt.events_of(0))) == 2
