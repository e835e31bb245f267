"""Event model for per-rank message-passing traces.

Section 4: "Each processor creates an event trace that records the
local timestamp, the event type, and event metadata for each event that
occurs."  An :class:`EventRecord` is one such entry.  Timestamps are
*local* to the recording rank (its skewed, drifting clock) — nothing in
the analyzer may compare timestamps across ranks (§4.1); only per-rank
intervals and per-rank ordering are meaningful.

Computation is not recorded explicitly: the compute phase of Fig. 1 is
the gap between the END of one event and the START of the next on the
same rank, which becomes a *local edge* in the message-passing graph.

Event kinds cover the MPI-1 send/receive-model subset of §3 plus the
single-node bookkeeping calls (INIT/FINALIZE).  Matching metadata:

* pairwise ops carry ``peer``/``tag``/``nbytes`` — the *resolved* values
  (a wildcard receive records the source that actually matched, which is
  legitimate because the trace describes a completed run).  A matched
  send and receive must agree on ``nbytes`` (``recv_nbytes`` for a
  SENDRECV's receive half): a transfer has one size, and matching
  rejects a pair that disagrees;
* nonblocking ops carry a rank-unique request id ``req``; completion ops
  (WAIT/WAITALL/WAITSOME/TEST) list the ids they completed — the
  "status flags that uniquely identify the send/receive transaction"
  used in Fig. 3 to match wait pairs;
* collectives carry ``root`` (where applicable) and ``coll_seq``, the
  per-rank collective ordinal.  MPI requires all ranks to invoke
  collectives on a communicator in the same order, so ordinal matching
  is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable

__all__ = [
    "EventKind",
    "EventRecord",
    "TraceMeta",
    "PAIRWISE_KINDS",
    "NONBLOCKING_KINDS",
    "COMPLETION_KINDS",
    "COLLECTIVE_KINDS",
    "ROOTED_COLLECTIVES",
    "LOCAL_KINDS",
]


class EventKind(enum.IntEnum):
    """Trace event types (MPI-1 send/receive-model subset, §3)."""

    INIT = 0
    FINALIZE = 1
    SEND = 2
    RECV = 3
    ISEND = 4
    IRECV = 5
    WAIT = 6
    WAITALL = 7
    WAITSOME = 8
    TEST = 9
    BARRIER = 10
    BCAST = 11
    REDUCE = 12
    ALLREDUCE = 13
    GATHER = 14
    SCATTER = 15
    ALLGATHER = 16
    ALLTOALL = 17
    SENDRECV = 18
    SCAN = 19
    REDUCE_SCATTER = 20

    @property
    def is_collective(self) -> bool:
        return self in COLLECTIVE_KINDS

    @property
    def is_pairwise(self) -> bool:
        return self in PAIRWISE_KINDS

    @property
    def is_nonblocking(self) -> bool:
        return self in NONBLOCKING_KINDS

    @property
    def is_completion(self) -> bool:
        return self in COMPLETION_KINDS

    @property
    def is_local(self) -> bool:
        return self in LOCAL_KINDS


PAIRWISE_KINDS = frozenset(
    {EventKind.SEND, EventKind.RECV, EventKind.ISEND, EventKind.IRECV, EventKind.SENDRECV}
)
NONBLOCKING_KINDS = frozenset({EventKind.ISEND, EventKind.IRECV})
COMPLETION_KINDS = frozenset(
    {EventKind.WAIT, EventKind.WAITALL, EventKind.WAITSOME, EventKind.TEST}
)
COLLECTIVE_KINDS = frozenset(
    {
        EventKind.BARRIER,
        EventKind.BCAST,
        EventKind.REDUCE,
        EventKind.ALLREDUCE,
        EventKind.GATHER,
        EventKind.SCATTER,
        EventKind.ALLGATHER,
        EventKind.ALLTOALL,
        EventKind.SCAN,
        EventKind.REDUCE_SCATTER,
    }
)
ROOTED_COLLECTIVES = frozenset(
    {EventKind.BCAST, EventKind.REDUCE, EventKind.GATHER, EventKind.SCATTER}
)
LOCAL_KINDS = frozenset({EventKind.INIT, EventKind.FINALIZE})


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One traced message-passing event on one rank.

    Attributes
    ----------
    rank:
        Recording processor.
    seq:
        Per-rank sequence number (0-based, dense).
    kind:
        The :class:`EventKind`.
    t_start, t_end:
        Entry/exit local timestamps in cycles; ``t_end >= t_start``.
    peer:
        Destination (sends) or resolved source (receives); ``-1`` if n/a.
    tag:
        Message tag; ``-1`` if n/a.
    nbytes:
        Payload size in bytes (0 for empty/synchronization messages).
    req:
        Rank-unique request id for ISEND/IRECV; ``-1`` otherwise.
    reqs:
        Request ids a completion op (WAIT/WAITALL/WAITSOME/TEST) refers
        to; for WAIT this is a 1-tuple equal to ``(req of the op,)``.
    completed:
        The subset of ``reqs`` actually completed by this op (relevant
        for WAITSOME/TEST; equals ``reqs`` for WAIT/WAITALL).
    root:
        Root rank for rooted collectives; ``-1`` otherwise.
    coll_seq:
        Per-rank collective ordinal (0-based) used for cross-rank
        collective matching; ``-1`` for non-collectives.
    recv_peer, recv_tag, recv_nbytes:
        For SENDRECV only: the receive half's metadata (``peer``/``tag``/
        ``nbytes`` describe the send half).  ``-1``/``0`` otherwise.
    src_any, tag_any:
        The receive (half) was *posted* with a wildcard source/tag
        (``ANY_SOURCE``/``ANY_TAG``).  ``peer``/``tag`` still record the
        resolved values; the flags preserve what the program asked for,
        which is what match-nondeterminism analysis needs.
    """

    rank: int
    seq: int
    kind: EventKind
    t_start: float
    t_end: float
    peer: int = -1
    tag: int = -1
    nbytes: int = 0
    req: int = -1
    reqs: tuple = ()
    completed: tuple = ()
    root: int = -1
    coll_seq: int = -1
    recv_peer: int = -1
    recv_tag: int = -1
    recv_nbytes: int = 0
    src_any: bool = False
    tag_any: bool = False

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"event r{self.rank}#{self.seq} {self.kind.name}: "
                f"t_end {self.t_end} < t_start {self.t_start}"
            )
        if self.seq < 0 or self.rank < 0:
            raise ValueError("rank and seq must be nonnegative")
        object.__setattr__(self, "reqs", tuple(self.reqs))
        object.__setattr__(self, "completed", tuple(self.completed))

    @property
    def duration(self) -> float:
        """Elapsed local time inside the call."""
        return self.t_end - self.t_start

    @property
    def key(self) -> tuple[int, int]:
        """Globally unique event identity ``(rank, seq)``."""
        return (self.rank, self.seq)

    def with_times(self, t_start: float, t_end: float) -> "EventRecord":
        """Copy with replaced timestamps (used by trace transformers)."""
        return replace(self, t_start=t_start, t_end=t_end)

    def describe(self) -> str:
        """One-line human-readable rendering (CLI / debugging)."""
        bits = [
            f"r{self.rank}#{self.seq}",
            self.kind.name,
            f"[{self.t_start:.0f},{self.t_end:.0f}]",
        ]
        if self.kind.is_pairwise:
            bits.append(f"peer={self.peer} tag={self.tag} {self.nbytes}B")
            if self.src_any or self.tag_any:
                wild = "+".join(
                    n for n, f in (("ANY_SOURCE", self.src_any), ("ANY_TAG", self.tag_any)) if f
                )
                bits.append(f"posted={wild}")
        if self.kind in NONBLOCKING_KINDS:
            bits.append(f"req={self.req}")
        if self.kind.is_completion:
            bits.append(f"reqs={list(self.reqs)} done={list(self.completed)}")
        if self.kind.is_collective:
            bits.append(f"coll#{self.coll_seq}" + (f" root={self.root}" if self.root >= 0 else ""))
        return " ".join(bits)


@dataclass(frozen=True, slots=True)
class TraceMeta:
    """Per-rank trace header.

    ``clock_offset``/``clock_drift`` document the rank's local clock as
    ``local = global * (1 + drift) + offset``.  They are informational:
    the analyzer never uses them (that is the point of §4.1), but the
    validation tooling can, to compare against simulator ground truth.
    """

    rank: int
    nprocs: int
    program: str = ""
    clock_offset: float = 0.0
    clock_drift: float = 0.0
    extra: tuple = ()

    def __post_init__(self) -> None:
        if not 0 <= self.rank < self.nprocs:
            raise ValueError(f"rank {self.rank} out of range for nprocs {self.nprocs}")
        object.__setattr__(self, "extra", tuple(self.extra))

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "nprocs": self.nprocs,
            "program": self.program,
            "clock_offset": self.clock_offset,
            "clock_drift": self.clock_drift,
            "extra": list(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceMeta":
        return cls(
            rank=data["rank"],
            nprocs=data["nprocs"],
            program=data.get("program", ""),
            clock_offset=data.get("clock_offset", 0.0),
            clock_drift=data.get("clock_drift", 0.0),
            extra=tuple(tuple(x) if isinstance(x, list) else x for x in data.get("extra", ())),
        )


def check_rank_order(events: Iterable[EventRecord]) -> None:
    """Raise if per-rank events are not dense, ordered and time-monotone."""
    prev_seq = -1
    prev_end = float("-inf")
    for ev in events:
        if ev.seq != prev_seq + 1:
            raise ValueError(f"non-dense sequence at r{ev.rank}#{ev.seq} (prev {prev_seq})")
        if ev.t_start < prev_end:
            raise ValueError(
                f"time went backwards at r{ev.rank}#{ev.seq}: "
                f"start {ev.t_start} < previous end {prev_end}"
            )
        prev_seq = ev.seq
        prev_end = ev.t_end
