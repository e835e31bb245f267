"""Streaming trace readers.

The analyzer streams traces instead of loading them in core (§1
difference (3); §6 "windowed approach").  :class:`TraceReader` yields
one rank's events lazily from disk; :class:`TraceSet` opens the
per-rank files written by :class:`repro.trace.writer.TraceSetWriter`
and checks they form a coherent run.

An in-memory variant (:class:`MemoryTrace`) backs tests and
property-based generators without touching disk.
"""

from __future__ import annotations

import glob
import re
import struct
from pathlib import Path
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro import obs
from repro.trace import format as fmt
from repro.trace.events import EventRecord, TraceMeta

__all__ = [
    "TraceReader",
    "TraceSet",
    "MemoryTrace",
    "TraceSource",
    "find_trace_files",
]


@runtime_checkable
class TraceSource(Protocol):
    """Anything that can hand per-rank event streams to the analyzer.

    Satisfied by the file-backed :class:`TraceSet` and the in-memory
    :class:`MemoryTrace`; consumers (builder, validators, lint engine)
    accept this protocol instead of a concrete reader.
    """

    nprocs: int

    def meta(self, rank: int) -> TraceMeta: ...

    def events_of(self, rank: int) -> Iterator[EventRecord]: ...

    def load_all(self) -> list[list[EventRecord]]: ...


#: What a decoder raises on bytes it cannot read (a bad JSON line or
#: header, a mistyped field, a record cut short).
_DECODE_ERRORS = (ValueError, KeyError, TypeError, struct.error)

_RANK_RE = re.compile(r"\.rank(\d+)\.trace\.(jsonl|bin)$")


def _counted_events(it: Iterator[EventRecord]) -> Iterator[EventRecord]:
    """Pass events through, reporting how many were read.

    Only ever wrapped around a stream while an observability session is
    active (the disabled path yields the raw iterator, zero overhead);
    the count lands when the stream is exhausted or dropped, so partial
    consumption is reported faithfully.
    """
    n = 0
    try:
        for ev in it:
            n += 1
            yield ev
    finally:
        if n:
            obs.add("trace.events_read", n)


def find_trace_files(directory: str | Path, stem: str) -> list[Path]:
    """Locate and rank-sort all trace files for ``stem`` in ``directory``."""
    paths = []
    for pattern in (f"{stem}.rank*.trace.jsonl", f"{stem}.rank*.trace.bin"):
        paths.extend(Path(p) for p in glob.glob(str(Path(directory) / pattern)))
    matched = []
    for p in paths:
        m = _RANK_RE.search(p.name)
        if m:
            matched.append((int(m.group(1)), p))
    matched.sort()
    return [p for _, p in matched]


class TraceReader:
    """Lazy reader for a single rank's trace file (text or binary)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.binary = self.path.name.endswith(fmt.BINARY_SUFFIX) or (
            not self.path.name.endswith(fmt.TEXT_SUFFIX) and self._sniff_binary()
        )
        self._bin_flags = True
        try:
            if self.binary:
                with open(self.path, "rb") as fh:
                    self.meta, self._bin_flags = fmt.read_header_binary_versioned(fh)
            else:
                with open(self.path, "r") as fh:
                    self.meta = fmt.read_header_text(fh)
        except _DECODE_ERRORS as exc:
            raise self._unreadable(exc, "header") from None

    def _unreadable(self, exc: Exception, where: str | None = None) -> ValueError:
        """A decoder error as a :class:`~repro.core.diagnostics.DiagnosticError`
        naming this file, ``where`` in it (a binary record names its own
        number) and the rank, once the header has said which."""
        from repro.core.diagnostics import DiagnosticError

        at = f", {where}" if where else ""
        rank = self.meta.rank if hasattr(self, "meta") else None
        return DiagnosticError(f"cannot read {self.path}{at}: {exc}", rank=rank)

    def _sniff_binary(self) -> bool:
        with open(self.path, "rb") as fh:
            return fh.read(len(fmt.BINARY_MAGIC)) in (fmt.BINARY_MAGIC, fmt.BINARY_MAGIC_V1)

    def events(self) -> Iterator[EventRecord]:
        """Stream all events from disk, one at a time."""
        it = self._raw_events()
        if obs.enabled():
            obs.add("trace.files_read")
            return _counted_events(it)
        return it

    def _raw_events(self) -> Iterator[EventRecord]:
        if self.binary:
            with open(self.path, "rb") as fh:
                fmt.read_header_binary(fh)
                try:
                    yield from fmt.decode_events_binary(fh, with_flags=self._bin_flags)
                except _DECODE_ERRORS as exc:
                    raise self._unreadable(exc) from None
        else:
            with open(self.path, "r") as fh:
                fmt.read_header_text(fh)
                lineno = 1
                try:
                    for lineno, line in enumerate(fh, 2):
                        line = line.strip()
                        if line:
                            yield fmt.decode_event_text(line)
                except _DECODE_ERRORS as exc:
                    raise self._unreadable(exc, f"line {lineno}") from None

    def __iter__(self) -> Iterator[EventRecord]:
        return self.events()


class TraceSet:
    """The per-rank trace files of one complete run."""

    def __init__(self, readers: Sequence[TraceReader]):
        if not readers:
            raise ValueError("TraceSet requires at least one trace")
        ranks = sorted(r.meta.rank for r in readers)
        nprocs = readers[0].meta.nprocs
        if any(r.meta.nprocs != nprocs for r in readers):
            raise ValueError("trace files disagree on nprocs")
        if ranks != list(range(nprocs)):
            raise ValueError(f"expected ranks 0..{nprocs - 1}, found {ranks}")
        self.readers = sorted(readers, key=lambda r: r.meta.rank)
        self.nprocs = nprocs

    @classmethod
    def open(cls, directory: str | Path, stem: str) -> "TraceSet":
        paths = find_trace_files(directory, stem)
        if not paths:
            raise FileNotFoundError(f"no trace files for stem {stem!r} in {directory}")
        return cls([TraceReader(p) for p in paths])

    def meta(self, rank: int) -> TraceMeta:
        return self.readers[rank].meta

    def events_of(self, rank: int) -> Iterator[EventRecord]:
        return self.readers[rank].events()

    def load_all(self) -> list[list[EventRecord]]:
        """Materialize everything (small traces / tests only)."""
        return [list(r.events()) for r in self.readers]


class MemoryTrace:
    """In-memory stand-in for :class:`TraceSet` (tests, generators).

    Takes per-rank event lists; performs the same coherence checks.
    ``clock_params`` maps rank -> ``(offset, drift)`` of its local clock,
    declared in the metas the way a file trace's header declares it.
    """

    def __init__(
        self,
        per_rank: Sequence[Sequence[EventRecord]],
        program: str = "synthetic",
        clock_params: dict[int, tuple[float, float]] | None = None,
    ):
        if not per_rank:
            raise ValueError("MemoryTrace requires at least one rank")
        self.nprocs = len(per_rank)
        self._events = [list(evs) for evs in per_rank]
        for rank, evs in enumerate(self._events):
            for ev in evs:
                if ev.rank != rank:
                    raise ValueError(f"event rank {ev.rank} filed under rank {rank}")
        clock_params = clock_params or {}
        self._metas = []
        for r in range(self.nprocs):
            offset, drift = clock_params.get(r, (0.0, 0.0))
            self._metas.append(
                TraceMeta(
                    rank=r,
                    nprocs=self.nprocs,
                    program=program,
                    clock_offset=offset,
                    clock_drift=drift,
                )
            )

    def meta(self, rank: int) -> TraceMeta:
        return self._metas[rank]

    def events_of(self, rank: int) -> Iterator[EventRecord]:
        return iter(self._events[rank])

    def load_all(self) -> list[list[EventRecord]]:
        return [list(evs) for evs in self._events]
