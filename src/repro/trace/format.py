"""On-disk codecs for trace files.

Two interchangeable formats:

* **text** (JSONL) — a JSON header line (the :class:`TraceMeta`) followed
  by one JSON array per event.  Grep-able, diff-able, the debugging
  format.
* **binary** — a fixed magic + JSON header block followed by packed
  little-endian records.  Compact and fast; the format the windowed
  streaming reader is designed around (§4: the PMPI wrapper dumps its
  memory-resident buffer to a file when full — our writer does the same
  buffer-flush dance for either codec).

Both codecs stream: encoding/decoding is record-at-a-time so traces
larger than memory never need to be resident (§1 difference (3) from
Dimemas).
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO, Iterator, TextIO

from repro.trace.events import EventKind, EventRecord, TraceMeta

__all__ = [
    "TEXT_SUFFIX",
    "BINARY_SUFFIX",
    "BINARY_MAGIC",
    "BINARY_MAGIC_V1",
    "encode_event_text",
    "decode_event_text",
    "encode_event_binary",
    "decode_events_binary",
    "write_header_text",
    "read_header_text",
    "write_header_binary",
    "read_header_binary",
    "read_header_binary_versioned",
]

TEXT_SUFFIX = ".trace.jsonl"
BINARY_SUFFIX = ".trace.bin"
BINARY_MAGIC = b"MPGT0002"
#: Previous on-disk version, still readable (no wildcard-flags byte).
BINARY_MAGIC_V1 = b"MPGT0001"

# Fixed part of a binary record:
#   kind, rank, seq, t_start, t_end, peer, tag, nbytes, req, root,
#   coll_seq, recv_peer, recv_tag, recv_nbytes, n_reqs, n_completed,
#   flags (bit 0 = src_any, bit 1 = tag_any)
_FIXED = struct.Struct("<BiqddiiqqiqiiqHHB")
# V1 records lack the trailing flags byte.
_FIXED_V1 = struct.Struct("<BiqddiiqqiqiiqHH")


# ---------------------------------------------------------------------------
# Text codec
# ---------------------------------------------------------------------------

def write_header_text(fh: TextIO, meta: TraceMeta) -> None:
    fh.write(json.dumps({"__meta__": meta.to_dict()}) + "\n")


def read_header_text(fh: TextIO) -> TraceMeta:
    line = fh.readline()
    if not line:
        raise ValueError("empty trace file (missing header)")
    data = json.loads(line)
    if "__meta__" not in data:
        raise ValueError("trace file does not start with a meta header")
    return TraceMeta.from_dict(data["__meta__"])


def encode_event_text(ev: EventRecord) -> str:
    """One event as a compact JSON array line."""
    return json.dumps(
        [
            int(ev.kind),
            ev.rank,
            ev.seq,
            ev.t_start,
            ev.t_end,
            ev.peer,
            ev.tag,
            ev.nbytes,
            ev.req,
            list(ev.reqs),
            list(ev.completed),
            ev.root,
            ev.coll_seq,
            ev.recv_peer,
            ev.recv_tag,
            ev.recv_nbytes,
            (1 if ev.src_any else 0) | (2 if ev.tag_any else 0),
        ],
        separators=(",", ":"),
    )


_TIME_TYPES = (int, float)  # NaN is a float: lint rule MPG002 reports it


def _row_types(n: int, t_start: type, t_end: type) -> tuple:
    types = [int] * n  # not bool, not float: seqs feed node-id arithmetic
    types[3], types[4] = t_start, t_end
    types[9] = types[10] = list  # reqs, completed
    return tuple(types)


# The field types of every well-typed row (request ids checked apart).
_ROW_TYPES = frozenset(
    _row_types(n, a, b) for n in (16, 17) for a in _TIME_TYPES for b in _TIME_TYPES
)


def decode_event_text(line: str) -> EventRecord:
    """Parse one JSONL event line; any malformed field raises ValueError."""
    v = json.loads(line)
    # 16-element lines are the pre-wildcard-flags format; still accepted.
    if not isinstance(v, list) or len(v) not in (16, 17):
        raise ValueError(f"malformed trace line: {line[:80]!r}")
    if tuple(map(type, v)) not in _ROW_TYPES or (
        (v[9] or v[10]) and not set(map(type, v[9] + v[10])) <= {int}
    ):
        raise ValueError(f"malformed trace line (mistyped field): {line[:80]!r}")
    flags = v[16] if len(v) == 17 else 0
    return EventRecord(
        kind=EventKind(v[0]),
        rank=v[1],
        seq=v[2],
        t_start=v[3],
        t_end=v[4],
        peer=v[5],
        tag=v[6],
        nbytes=v[7],
        req=v[8],
        reqs=tuple(v[9]),
        completed=tuple(v[10]),
        root=v[11],
        coll_seq=v[12],
        recv_peer=v[13],
        recv_tag=v[14],
        recv_nbytes=v[15],
        src_any=bool(flags & 1),
        tag_any=bool(flags & 2),
    )


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------

def write_header_binary(fh: BinaryIO, meta: TraceMeta) -> None:
    blob = json.dumps(meta.to_dict()).encode("utf-8")
    fh.write(BINARY_MAGIC)
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)


def read_header_binary(fh: BinaryIO) -> TraceMeta:
    meta, _ = read_header_binary_versioned(fh)
    return meta


def read_header_binary_versioned(fh: BinaryIO) -> tuple[TraceMeta, bool]:
    """Header plus whether records carry the wildcard-flags byte
    (``False`` for legacy ``MPGT0001`` files)."""
    magic = fh.read(len(BINARY_MAGIC))
    if magic not in (BINARY_MAGIC, BINARY_MAGIC_V1):
        raise ValueError(f"bad magic {magic!r}; not a {BINARY_MAGIC.decode()} trace")
    (length,) = struct.unpack("<I", fh.read(4))
    blob = fh.read(length)
    if len(blob) != length:
        raise ValueError("truncated binary trace header")
    return TraceMeta.from_dict(json.loads(blob.decode("utf-8"))), magic == BINARY_MAGIC


def encode_event_binary(ev: EventRecord) -> bytes:
    head = _FIXED.pack(
        int(ev.kind),
        ev.rank,
        ev.seq,
        ev.t_start,
        ev.t_end,
        ev.peer,
        ev.tag,
        ev.nbytes,
        ev.req,
        ev.root,
        ev.coll_seq,
        ev.recv_peer,
        ev.recv_tag,
        ev.recv_nbytes,
        len(ev.reqs),
        len(ev.completed),
        (1 if ev.src_any else 0) | (2 if ev.tag_any else 0),
    )
    tail = struct.pack(f"<{len(ev.reqs)}q{len(ev.completed)}q", *ev.reqs, *ev.completed)
    return head + tail


def decode_events_binary(fh: BinaryIO, with_flags: bool = True) -> Iterator[EventRecord]:
    """Stream records from ``fh`` positioned just past the header.

    ``with_flags=False`` reads the legacy ``MPGT0001`` record layout
    (no wildcard-flags byte); see :func:`read_header_binary_versioned`.
    """
    rec = _FIXED if with_flags else _FIXED_V1
    index = 0
    while True:
        head = fh.read(rec.size)
        if not head:
            return
        index += 1
        if len(head) < rec.size:
            raise ValueError(f"record {index}: truncated binary trace record")
        fields = rec.unpack(head)
        flags = fields[16] if with_flags else 0
        (
            kind,
            rank,
            seq,
            t_start,
            t_end,
            peer,
            tag,
            nbytes,
            req,
            root,
            coll_seq,
            recv_peer,
            recv_tag,
            recv_nbytes,
            n_reqs,
            n_completed,
        ) = fields[:16]
        total = n_reqs + n_completed
        ids: tuple = ()
        if total:
            blob = fh.read(8 * total)
            if len(blob) < 8 * total:
                raise ValueError(f"record {index}: truncated request-id block")
            ids = struct.unpack(f"<{total}q", blob)
        yield EventRecord(
            kind=EventKind(kind),
            rank=rank,
            seq=seq,
            t_start=t_start,
            t_end=t_end,
            peer=peer,
            tag=tag,
            nbytes=nbytes,
            req=req,
            reqs=ids[:n_reqs],
            completed=ids[n_reqs:],
            root=root,
            coll_seq=coll_seq,
            recv_peer=recv_peer,
            recv_tag=recv_tag,
            recv_nbytes=recv_nbytes,
            src_any=bool(flags & 1),
            tag_any=bool(flags & 2),
        )
