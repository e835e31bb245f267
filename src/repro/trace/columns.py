"""One rank's decoded trace as int/float columns.

The analyzer decodes each rank file once, into an :class:`EventColumns`
(one numpy column per scalar :class:`~repro.trace.events.EventRecord`
field, the request-id lists as offsets plus values), and every consumer
reads that one frame: the trace-level lint rules, ``trace_stats`` /
``trace_frame``, matching and the graph builder.  This is Pipit's
dataframe trace model (arXiv:2306.11177) applied per rank.

:meth:`EventColumns.records` turns the columns back into
:class:`EventRecord` objects for the consumers that walk events one at
a time (diagnosis, verification, the streaming engines).
"""

from __future__ import annotations

import json
import struct
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from repro.trace.events import EventKind, EventRecord
from repro.trace.format import _FIXED, _FIXED_V1, _ROW_TYPES

__all__ = ["EventColumns", "decode_binary_columns", "decode_text_columns"]

#: The int columns, in :class:`EventRecord` field order.
_INT_FIELDS = (
    "rank",
    "seq",
    "peer",
    "tag",
    "nbytes",
    "req",
    "root",
    "coll_seq",
    "recv_peer",
    "recv_tag",
    "recv_nbytes",
)
#: The text codec's field order (``reqs``/``done`` are id lists).
_ROW_FIELDS = (
    "kind",
    "rank",
    "seq",
    "t_start",
    "t_end",
    "peer",
    "tag",
    "nbytes",
    "req",
    "reqs",
    "done",
    "root",
    "coll_seq",
    "recv_peer",
    "recv_tag",
    "recv_nbytes",
    "flags",
)
_DTYPES = {"kind": np.uint8, "flags": np.uint8, "t_start": np.float64, "t_end": np.float64}
_KINDS = tuple(EventKind)
_N_KINDS = len(_KINDS)


def _offsets(lengths: Sequence[int]) -> np.ndarray:
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _split(ptr: np.ndarray, values: np.ndarray) -> list[tuple]:
    """The per-row tuples of an offsets-plus-values column."""
    n = len(ptr) - 1
    if not len(values):
        return [()] * n
    vals = values.tolist()
    bounds = ptr.tolist()
    return [tuple(vals[a:b]) for a, b in zip(bounds, bounds[1:])]


class EventColumns:
    """One rank's events as columns (row ``i`` is the rank's ``i``-th
    event in stream order).

    ``kind`` and ``flags`` (bit 0 ``src_any``, bit 1 ``tag_any``) are
    ``uint8``; ``t_start``/``t_end`` ``float64``; every other scalar
    field (``rank``, ``seq``, ``peer``, ``tag``, ``nbytes``, ``req``,
    ``root``, ``coll_seq`` and the ``recv_*`` fields) is ``int64``.  Row ``i``'s request ids
    are ``reqs[reqs_ptr[i]:reqs_ptr[i + 1]]`` and its completed ids
    ``done[done_ptr[i]:done_ptr[i + 1]]``.
    """

    __slots__ = (
        "kind",
        "t_start",
        "t_end",
        "flags",
        "reqs_ptr",
        "reqs",
        "done_ptr",
        "done",
        "_records",
        "__weakref__",
        *_INT_FIELDS,
    )

    def __init__(self, columns: dict) -> None:
        for name in self.__slots__:
            if name not in ("_records", "__weakref__"):
                setattr(self, name, columns[name])
        self._records: list | None = None

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def from_fields(cls, cols: Sequence[Sequence]) -> "EventColumns":
        """Columns of the text codec's fields, one sequence per field in
        its order: ``kind, rank, seq, t_start, t_end, peer, tag, nbytes,
        req, reqs, completed, root, coll_seq, recv_peer, recv_tag,
        recv_nbytes, flags`` (``reqs``/``completed`` hold one id
        sequence per row).  Raises :class:`OverflowError` for an int
        that does not fit in 64 bits."""
        out = {
            name: np.array(values, dtype=_DTYPES.get(name, np.int64))
            for name, values in zip(_ROW_FIELDS, cols)
            if name not in ("reqs", "done")
        }
        for name, lists in (("reqs", cols[9]), ("done", cols[10])):
            out[f"{name}_ptr"] = _offsets(list(map(len, lists)))
            out[name] = np.array(list(chain.from_iterable(lists)), dtype=np.int64)
        return cls(out)

    @classmethod
    def from_events(cls, events: Iterable[EventRecord]) -> "EventColumns":
        """Columns of already-built records (an in-memory trace), which
        :meth:`records` then hands back."""
        events = list(events)
        rows = [
            (
                int(ev.kind),
                ev.rank,
                ev.seq,
                ev.t_start,
                ev.t_end,
                ev.peer,
                ev.tag,
                ev.nbytes,
                ev.req,
                ev.reqs,
                ev.completed,
                ev.root,
                ev.coll_seq,
                ev.recv_peer,
                ev.recv_tag,
                ev.recv_nbytes,
                (1 if ev.src_any else 0) | (2 if ev.tag_any else 0),
            )
            for ev in events
        ]
        frame = cls.from_fields(list(zip(*rows)) if rows else [()] * len(_ROW_FIELDS))
        frame._records = events
        return frame

    # -- rows -------------------------------------------------------------------
    def reqs_of(self, i: int) -> tuple:
        return tuple(self.reqs[self.reqs_ptr[i] : self.reqs_ptr[i + 1]].tolist())

    def done_of(self, i: int) -> tuple:
        return tuple(self.done[self.done_ptr[i] : self.done_ptr[i + 1]].tolist())

    def record(self, i: int) -> EventRecord:
        """Row ``i`` as an :class:`EventRecord` (the record itself when
        the columns were made from records)."""
        if self._records is not None:
            return self._records[i]
        flags = int(self.flags[i])
        return EventRecord(
            int(self.rank[i]),
            int(self.seq[i]),
            _KINDS[self.kind[i]],
            float(self.t_start[i]),
            float(self.t_end[i]),
            *(int(getattr(self, f)[i]) for f in _INT_FIELDS[2:6]),
            self.reqs_of(i),
            self.done_of(i),
            *(int(getattr(self, f)[i]) for f in _INT_FIELDS[6:]),
            bool(flags & 1),
            bool(flags & 2),
        )

    def records(self) -> list[EventRecord]:
        """Every row as an :class:`EventRecord`, in stream order (the
        records themselves when the columns were made from them)."""
        if self._records is not None:
            return list(self._records)
        flags = self.flags
        return list(
            map(
                EventRecord,
                self.rank.tolist(),
                self.seq.tolist(),
                [_KINDS[k] for k in self.kind.tolist()],
                self.t_start.tolist(),
                self.t_end.tolist(),
                *(getattr(self, f).tolist() for f in _INT_FIELDS[2:6]),
                _split(self.reqs_ptr, self.reqs),
                _split(self.done_ptr, self.done),
                *(getattr(self, f).tolist() for f in _INT_FIELDS[6:]),
                (flags & 1).astype(bool).tolist(),
                (flags & 2).astype(bool).tolist(),
            )
        )


# ---------------------------------------------------------------------------
# Whole-file decoders
# ---------------------------------------------------------------------------
#
# Each returns ``None`` for a body it does not certify as well formed;
# the reader then decodes the file record by record with the streaming
# codec, which raises the error naming the line or record (or accepts
# it, when only this fast path was too strict).


def decode_text_columns(body: str) -> EventColumns | None:
    """Every event line of a JSONL trace body (the text after the header
    line) with one ``json.loads``.

    A well-formed line is one JSON array of ints, floats and two int
    lists: no quote, exactly three brackets of each kind.  Under those
    conditions, joining the lines into one array cannot move an element
    boundary, so equal counts of lines and parsed rows mean every row is
    its own line's value, and the per-row type check is the streaming
    codec's own (:data:`repro.trace.format._ROW_TYPES`)."""
    lines = [line for line in map(str.strip, body.split("\n")) if line]
    if '"' in body or any(
        set(map(str.count, lines, repeat(bracket))) - {3} for bracket in "[]"
    ):
        return None
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        return None
    if len(rows) != len(lines) or not set(map(tuple, map(map, repeat(type), rows))) <= _ROW_TYPES:
        return None
    if any(len(v) == 16 for v in rows):  # legacy lines: no wildcard flags
        rows = [v if len(v) == 17 else [*v, 0] for v in rows]
    cols = list(zip(*rows)) if rows else [()] * len(_ROW_FIELDS)
    ids = chain(chain.from_iterable(cols[9]), chain.from_iterable(cols[10]))
    if not set(map(type, ids)) <= {int}:
        return None
    try:
        frame = EventColumns.from_fields(cols)
    except OverflowError:
        return None
    return None if _refused(frame) else frame


def _refused(frame: EventColumns) -> bool:
    """Whether any row is one an :class:`EventRecord` refuses: an
    unknown kind, a negative rank or seq, or ``t_end < t_start`` (a NaN
    time is kept; lint rule MPG002 reports it)."""
    return bool(
        np.any(frame.kind >= _N_KINDS)
        or np.any(frame.rank < 0)
        or np.any(frame.seq < 0)
        or np.any(frame.t_end < frame.t_start)
    )


#: A binary record's fixed part as a numpy record (``_FIXED``'s layout).
_FIXED_NAMES = (
    "kind",
    "rank",
    "seq",
    "t_start",
    "t_end",
    "peer",
    "tag",
    "nbytes",
    "req",
    "root",
    "coll_seq",
    "recv_peer",
    "recv_tag",
    "recv_nbytes",
    "n_reqs",
    "n_done",
    "flags",
)
_FIXED_FORMATS = "u1 <i4 <i8 <f8 <f8 <i4 <i4 <i8 <i8 <i4 <i8 <i4 <i4 <i8 <u2 <u2 u1".split()
_COUNTS = struct.Struct("<HH")
_COUNTS_AT = 81  # offset of (n_reqs, n_completed) in either layout


def _fixed_dtype(size: int) -> np.dtype:
    offsets = np.cumsum([0] + [np.dtype(f).itemsize for f in _FIXED_FORMATS])
    n = len(_FIXED_NAMES) if size == _FIXED.size else len(_FIXED_NAMES) - 1
    return np.dtype(
        {
            "names": _FIXED_NAMES[:n],
            "formats": _FIXED_FORMATS[:n],
            "offsets": offsets[:n].tolist(),
            "itemsize": size,
        }
    )


def decode_binary_columns(body: bytes, with_flags: bool = True) -> EventColumns | None:
    """Every record of a binary trace body (the bytes after the header):
    one pass over the record offsets, then one gather of the fixed parts
    and one of the request-id blocks."""
    size = (_FIXED if with_flags else _FIXED_V1).size
    n_bytes = len(body)
    starts: list[int] = []
    pos = 0
    counts = _COUNTS.unpack_from
    while pos < n_bytes:
        if pos + size > n_bytes:
            return None  # a cut record: the streaming codec names it
        a, b = counts(body, pos + _COUNTS_AT)
        starts.append(pos)
        pos += size + 8 * (a + b)
    if pos != n_bytes:
        return None  # a cut request-id block
    raw = np.frombuffer(body, dtype=np.uint8)
    marks = np.zeros(n_bytes + 1, dtype=np.int8)
    at = np.array(starts, dtype=np.int64)
    marks[at] = 1
    marks[at + size] -= 1
    fixed_part = np.cumsum(marks[:-1], dtype=np.int8).view(bool)
    rec = raw[fixed_part].view(_fixed_dtype(size))
    ids = raw[~fixed_part].view("<i8")
    n_reqs = rec["n_reqs"].astype(np.int64)
    n_done = rec["n_done"].astype(np.int64)
    # Each record's id block is its reqs, then its completed ids.
    per = n_reqs + n_done
    first = np.repeat(_offsets(per)[:-1], per)
    pos_in = np.arange(len(ids), dtype=np.int64) - first
    is_req = pos_in < np.repeat(n_reqs, per)
    cols = {
        name: rec[name].astype(_DTYPES.get(name, np.int64))
        for name in _FIXED_NAMES[:14]
    }
    cols["flags"] = rec["flags"].copy() if with_flags else np.zeros(len(rec), dtype=np.uint8)
    cols["reqs_ptr"] = _offsets(n_reqs)
    cols["reqs"] = ids[is_req].astype(np.int64)
    cols["done_ptr"] = _offsets(n_done)
    cols["done"] = ids[~is_req].astype(np.int64)
    frame = EventColumns(cols)
    return None if _refused(frame) else frame
