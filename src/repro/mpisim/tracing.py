"""PMPI-style tracing hook for the simulated runtime.

Plays the role of the paper's "lightweight PMPI wrapper" (§4): it
observes every MPI-level event the engine executes, converts the
engine's global virtual times to the recording rank's *local* clock, and
hands dense-sequence-numbered :class:`EventRecord` objects to a sink —
either in-memory lists (:class:`MemoryCollector`) or buffered per-rank
files (:class:`FileCollector` wrapping
:class:`repro.trace.writer.TraceSetWriter`).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.mpisim.clock import LocalClock, perfect_clocks
from repro.trace.events import EventKind, EventRecord
from repro.trace.reader import MemoryTrace, TraceSet
from repro.trace.writer import TraceSetWriter

__all__ = ["BaseCollector", "MemoryCollector", "FileCollector"]


class BaseCollector:
    """Shared record-building logic; subclasses provide ``_sink``.

    Supports *patchable* records: a wildcard MPI_Irecv's resolved source,
    tag and size are only known when the message matches, which may be
    long after the call returned.  Real PMPI tracers obtain them from the
    eventual MPI_Status; we model that by letting the engine mark the
    IRECV record patchable and fill in the resolved fields later.  Per-
    rank emission order is preserved: records are held back from the sink
    until every earlier record of that rank is final.
    """

    def __init__(self, nprocs: int, clocks: Sequence[LocalClock] | None = None):
        if clocks is not None and len(clocks) != nprocs:
            raise ValueError(f"need {nprocs} clocks, got {len(clocks)}")
        self.nprocs = nprocs
        self.clocks = list(clocks) if clocks is not None else perfect_clocks(nprocs)
        self._seq = [0] * nprocs
        self._held: list[dict[int, EventRecord]] = [{} for _ in range(nprocs)]
        self._unpatched: list[set[int]] = [set() for _ in range(nprocs)]
        self._next_flush: list[int] = [0] * nprocs

    @property
    def clock_params(self) -> dict[int, tuple[float, float]]:
        """Per-rank ``(offset, drift)`` of the local clocks, as trace headers declare them."""
        return {r: (c.offset, c.drift) for r, c in enumerate(self.clocks)}

    def hook(
        self,
        rank: int,
        kind: EventKind,
        t_start: float,
        t_end: float,
        *,
        peer: int = -1,
        tag: int = -1,
        nbytes: int = 0,
        req: int = -1,
        reqs: tuple = (),
        completed: tuple = (),
        root: int = -1,
        coll_seq: int = -1,
        recv_peer: int = -1,
        recv_tag: int = -1,
        recv_nbytes: int = 0,
        src_any: bool = False,
        tag_any: bool = False,
        patchable: bool = False,
    ) -> tuple:
        """Engine-facing callback (signature matches ``Engine._emit``).

        Returns a token ``(rank, seq)`` the engine may later pass to
        :meth:`patch` when ``patchable`` was set.
        """
        clock = self.clocks[rank]
        seq = self._seq[rank]
        record = EventRecord(
            rank=rank,
            seq=seq,
            kind=kind,
            t_start=clock.to_local(t_start),
            t_end=clock.to_local(t_end),
            peer=peer,
            tag=tag,
            nbytes=nbytes,
            req=req,
            reqs=reqs,
            completed=completed,
            root=root,
            coll_seq=coll_seq,
            recv_peer=recv_peer,
            recv_tag=recv_tag,
            recv_nbytes=recv_nbytes,
            src_any=src_any,
            tag_any=tag_any,
        )
        self._seq[rank] += 1
        self._held[rank][seq] = record
        if patchable:
            self._unpatched[rank].add(seq)
        self._flush(rank)
        return (rank, seq)

    def patch(self, token: tuple, *, peer: int, tag: int, nbytes: int) -> None:
        """Fill in a patchable record's resolved receive metadata."""
        rank, seq = token
        if seq not in self._unpatched[rank]:
            raise ValueError(f"record r{rank}#{seq} is not awaiting a patch")
        record = self._held[rank][seq]
        self._held[rank][seq] = replace(record, peer=peer, tag=tag, nbytes=nbytes)
        self._unpatched[rank].discard(seq)
        self._flush(rank)

    def finish(self) -> None:
        """Flush everything; never-resolved wildcards keep peer == -1."""
        for rank in range(self.nprocs):
            self._unpatched[rank].clear()
            self._flush(rank)

    def _flush(self, rank: int) -> None:
        held = self._held[rank]
        nxt = self._next_flush[rank]
        unpatched = self._unpatched[rank]
        while nxt in held and nxt not in unpatched:
            self._sink(held.pop(nxt))
            nxt += 1
        self._next_flush[rank] = nxt

    def _sink(self, record: EventRecord) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class MemoryCollector(BaseCollector):
    """Collect records in per-rank lists; expose them as a MemoryTrace."""

    def __init__(self, nprocs: int, clocks: Sequence[LocalClock] | None = None, program: str = ""):
        super().__init__(nprocs, clocks)
        self.program = program
        self.records: list[list[EventRecord]] = [[] for _ in range(nprocs)]

    def _sink(self, record: EventRecord) -> None:
        self.records[record.rank].append(record)

    def trace(self) -> MemoryTrace:
        self.finish()
        return MemoryTrace(
            self.records, program=self.program or "mpisim", clock_params=self.clock_params
        )


class FileCollector(BaseCollector):
    """Stream records into buffered per-rank trace files (§4 buffering)."""

    def __init__(
        self,
        directory: str | Path,
        stem: str,
        nprocs: int,
        clocks: Sequence[LocalClock] | None = None,
        program: str = "",
        buffer_events: int = 4096,
        binary: bool = False,
    ):
        super().__init__(nprocs, clocks)
        self.writer = TraceSetWriter(
            directory,
            stem,
            nprocs,
            program=program or "mpisim",
            buffer_events=buffer_events,
            binary=binary,
            clock_params=self.clock_params,
        )
        self.directory = Path(directory)
        self.stem = stem

    def _sink(self, record: EventRecord) -> None:
        self.writer.record(record)

    def close(self) -> None:
        self.finish()
        self.writer.close()

    def trace(self) -> TraceSet:
        self.close()
        return TraceSet.open(self.directory, self.stem)
