"""Trace readers: whole-rank columnar decode, and streaming.

:class:`TraceReader` reads one rank's file two ways.
:meth:`~TraceReader.columns` decodes the whole file at once into an
:class:`~repro.trace.columns.EventColumns` frame (one ``json.loads``
per JSONL file, one pass over the record offsets of a binary one); the
in-core analyzer reads every rank that way, once.
:meth:`~TraceReader.events` streams :class:`EventRecord` objects one
at a time, for the engines that must never hold a whole trace (§1
difference (3); §6 "windowed approach").  Both raise the same
:class:`~repro.core.diagnostics.DiagnosticError` on bytes they cannot
read, naming the file, the line or record, and the rank: a file the
columnar decode does not certify is decoded again by the streaming
codec, which names the defect.

:class:`TraceSet` opens the per-rank files written by
:class:`repro.trace.writer.TraceSetWriter` and checks they form a
coherent run; it keeps the ranks the front door decoded until the
graph builder takes them (:meth:`TraceSet.take_columns`).  An
in-memory variant (:class:`MemoryTrace`) backs tests and
property-based generators without touching disk.
"""

from __future__ import annotations

import glob
import re
import struct
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Protocol, Sequence, runtime_checkable

from repro import obs
from repro.trace import format as fmt
from repro.trace.events import EventRecord, TraceMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.columns import EventColumns

__all__ = [
    "TraceReader",
    "TraceSet",
    "MemoryTrace",
    "TraceSource",
    "find_trace_files",
    "rank_columns",
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


def rank_columns(source: TraceSource, rank: int) -> EventColumns:
    """One rank of ``source`` as columns: its own columnar decode when
    the source has one (:meth:`TraceSet.columns`,
    :meth:`MemoryTrace.columns`), else built from its event stream."""
    columns = getattr(source, "columns", None)
    if columns is not None:
        return columns(rank)
    from repro.trace.columns import EventColumns

    return EventColumns.from_events(source.events_of(rank))


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

    def columns(self) -> EventColumns:
        """Decode the whole file once, into columns.  A file the
        columnar decode does not certify is read again by the streaming
        codec, which raises the error naming the line or record."""
        from repro.trace.columns import EventColumns

        frame = self._decode_columns()
        if frame is None:
            records = list(self._raw_events())
            try:
                frame = EventColumns.from_events(records)
            except OverflowError as exc:
                raise self._unreadable(exc) from None
        if obs.enabled():
            obs.add("trace.files_read")
            obs.add("trace.events_read", len(frame))
        return frame

    def _decode_columns(self) -> EventColumns | None:
        from repro.trace.columns import decode_binary_columns, decode_text_columns

        try:
            if self.binary:
                with open(self.path, "rb") as fh:
                    fmt.read_header_binary(fh)
                    return decode_binary_columns(fh.read(), with_flags=self._bin_flags)
            with open(self.path, "r") as fh:
                fmt.read_header_text(fh)
                return decode_text_columns(fh.read())
        except _DECODE_ERRORS:
            return None

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
        self._kept: dict[int, EventColumns] = {}
        self._lent: dict[int, weakref.ref] = {}

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

    def columns(self, rank: int, keep: bool = False) -> EventColumns:
        """Rank ``rank`` decoded into columns, decoding it only if no
        decode of it is held here or still alive in a build.  ``keep``
        holds the decode until :meth:`take_columns` (the front door
        keeps what the build will read)."""
        frame = self._kept.get(rank)
        if frame is None:
            ref = self._lent.get(rank)
            frame = ref() if ref is not None else None
        if frame is None:
            frame = self.readers[rank].columns()
        if keep:
            self._kept[rank] = frame
        return frame

    def take_columns(self) -> list[EventColumns]:
        """Every rank's columns, for a build to own: the decodes held
        here are handed over, and only weakly referenced afterwards, so
        this set keeps nothing decoded alive beside the build."""
        frames = [self.columns(rank) for rank in range(self.nprocs)]
        self._kept.clear()
        self._lent = {rank: weakref.ref(frame) for rank, frame in enumerate(frames)}
        return frames

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_kept"], state["_lent"] = {}, {}
        return state


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
        self._columns: list = [None] * self.nprocs
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

    def columns(self, rank: int) -> EventColumns:
        """Rank ``rank``'s events as columns (built once)."""
        frame = self._columns[rank]
        if frame is None:
            from repro.trace.columns import EventColumns

            frame = self._columns[rank] = EventColumns.from_events(self._events[rank])
        return frame
