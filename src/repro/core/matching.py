"""Order-based cross-rank event matching (§4.1).

"Each message event is guaranteed to have a counterpart, and this
counterpart can be found simply by processing each event in order on
each processor" — no clock synchronization, only per-rank execution
order.  For every channel ``(src, dst, tag)`` the n-th send matches the
n-th receive (MPI non-overtaking); collectives match by per-rank
ordinal; nonblocking operations link to the completion event that
retired their request ("status flags", Fig. 3).

The result is a :class:`MatchResult` of pure key-to-key links, consumed
by the graph builder.  The engines that walk the traces without a graph
— the streaming traversal (§6) and the Dimemas replay (§1.1) — match
the same way on the fly, through one :class:`RankScheduler`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.core.diagnostics import DiagnosticError, warn
from repro.trace.events import (
    COLLECTIVE_KINDS,
    COMPLETION_KINDS,
    EventKind,
    EventRecord,
    ROOTED_COLLECTIVES,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.columns import EventColumns

__all__ = [
    "MatchResult",
    "MatchError",
    "CollectiveGroup",
    "RankScheduler",
    "match_events",
    "size_mismatch",
    "stalled",
    "unknown_request",
    "unpaired",
]

Key = tuple  # (rank, seq)


class MatchError(DiagnosticError):
    """Traces cannot be paired into a consistent message graph.

    Carries the structured ``code``/``rank``/``seq`` fields of
    :class:`~repro.core.diagnostics.DiagnosticError`, so matching
    failures name the same defect the ``repro-lint`` pre-flight pass
    reports (e.g. ``unmatched-endpoint``, ``collective-mismatch``).
    """


@dataclass(frozen=True)
class CollectiveGroup:
    """One matched collective instance across all ranks."""

    ordinal: int
    kind: EventKind
    root: int
    nbytes: int
    members: tuple  # Key per rank, indexed by rank


@dataclass
class MatchResult:
    """All cross-event links recovered from the traces.

    Attributes
    ----------
    transfer_of:
        send-side key -> receive-side key, one entry per message.  The
        send side is a SEND/ISEND (or SENDRECV acting as its send half);
        the receive side a RECV/IRECV (or SENDRECV receive half).
    reverse_transfer_of:
        the inverse mapping.
    completion_of:
        ISEND/IRECV key -> key of the WAIT/WAITALL/WAITSOME/TEST event
        that completed its request.
    transfer_index:
        send-side key -> ordinal of the transfer on its channel
        ``(src, dst, tag)``.  This is the canonical per-message identity
        both the in-core builder and the streaming traversal can compute
        independently, so edge uids (deterministic delta sampling) are
        keyed on it.
    collectives:
        matched :class:`CollectiveGroup` list, by ordinal.
    uncompleted:
        ISEND/IRECV keys whose request no completion event retired
        (§4.3's problematic fully-asynchronous case).
    """

    transfer_of: dict = field(default_factory=dict)
    reverse_transfer_of: dict = field(default_factory=dict)
    completion_of: dict = field(default_factory=dict)
    transfer_index: dict = field(default_factory=dict)
    collectives: list = field(default_factory=list)
    uncompleted: list = field(default_factory=list)

    def link_count(self) -> int:
        return len(self.transfer_of)


def unpaired(leftovers: Sequence[tuple[str, Key, tuple]]) -> MatchError:
    """The error for pairwise events left without a counterpart.

    ``leftovers`` holds ``(side, (rank, seq), channel)`` triples, side
    ``"send"`` or ``"recv"``; the error is located at the first one.
    """
    shown = "; ".join(f"{side} {k} on channel {ch}" for side, k, ch in leftovers[:8])
    rank, seq = leftovers[0][1]
    return MatchError(
        f"{len(leftovers)} unpaired pairwise event(s): {shown}",
        code="unmatched-endpoint",
        rank=rank,
        seq=seq,
    )


def unknown_request(rank: int, seq: int, rid: int) -> MatchError:
    """The error for a completion of a request its rank never posted or
    already completed, coded as MPG005's ``wait-without-request``."""
    return MatchError(
        f"rank {rank} event #{seq} completes unknown request {rid}",
        code="wait-without-request",
        rank=rank,
        seq=seq,
    )


def _waits_for(rank: int, need: tuple) -> str:
    """What a blocked rank waits for, in words (see :func:`stalled`)."""
    kind, key, seq, _ = need
    waits = f"rank {rank} event #{seq} waits for"
    if kind == "coll":
        return f"{waits} every rank at collective #{key}"
    _, src, dst, tag, k = key
    if kind == "data":
        return f"{waits} the data of message {k} from rank {src} (tag {tag})"
    return f"{waits} rank {dst} to acknowledge message {k} (tag {tag})"


def stalled(what: str, blocked: Sequence[tuple[int, tuple]]) -> MatchError:
    """The error for a rank-by-rank traversal in which no rank can move.

    ``blocked`` holds ``(rank, need)`` of every waiting rank, a need
    being ``(kind, key, seq, n)``: ``kind`` ``"data"``/``"ack"`` with
    the mailbox key ``("d"|"a", src, dst, tag, k)`` of the k-th message on
    its channel, or ``"coll"`` with the collective's ordinal; ``seq`` is
    the event the rank blocks in.  The error is located there on the
    first blocked rank, and coded by what it waits for: a message half
    is an ``unmatched-endpoint``, a collective a ``collective-mismatch``.
    """
    rank, need = blocked[0]
    return MatchError(
        f"{what} stalled: " + "; ".join(_waits_for(r, n) for r, n in blocked),
        code="collective-mismatch" if need[0] == "coll" else "unmatched-endpoint",
        rank=rank,
        seq=need[2],
    )


def size_mismatch(
    rank: int, seq: int, src: int, tag: int, recv_nbytes: int, send_nbytes: int
) -> MatchError:
    """The error for a matched pair that disagrees on its size.

    A transfer has one size: the data edge's δ_t(d) and the eager/sync
    choice of its acknowledgement both read it, so a receive that names
    another size than its matched send would model a different message
    on each side.  The error names the receive event.
    """
    return MatchError(
        f"rank {rank} event #{seq} receives {recv_nbytes} B from rank {src} "
        f"(tag {tag}) but its matched send carries {send_nbytes} B",
        code="unmatched-endpoint",
        rank=rank,
        seq=seq,
    )


class _CollState:
    """One collective instance being assembled across ranks."""

    def __init__(self) -> None:
        self.entries: dict[int, tuple] = {}  # rank -> (entry value, event)
        self.exits: list | None = None
        self.consumed = 0


def _collective_group(ordinal: int, evs: Sequence[EventRecord]) -> CollectiveGroup:
    """The instance ``evs`` (one event per rank) form; every rank must
    call the same collective with the same root."""
    odd = next((e for e in evs if (e.kind, e.root) != (evs[0].kind, evs[0].root)), None)
    if odd is not None:
        raise MatchError(
            f"collective #{ordinal}: inconsistent kind/root across ranks",
            code="collective-mismatch",
            rank=odd.rank,
            seq=odd.seq,
        )
    return CollectiveGroup(
        ordinal=ordinal,
        kind=evs[0].kind,
        root=evs[0].root,
        nbytes=max(e.nbytes for e in evs),
        members=tuple((r, e.seq) for r, e in enumerate(evs)),
    )


_UNMET = object()


class RankScheduler:
    """The rank-by-rank traversal both graph-free engines run on: the
    streaming perturbation traversal (§6) and the Dimemas replay (§1.1).

    An engine supplies one generator per rank and a collective
    evaluator; the scheduler owns everything between the ranks.  A rank
    generator publishes through it — :meth:`send` a send's data,
    :meth:`recv` a posted receive, :meth:`acknowledge` a receive's ack,
    :meth:`enter` a collective — and yields a *need* where it blocks:
    ``("data"|"ack", key, seq, n)`` with the mailbox key ``("d"|"a",
    src, dst, tag, k)`` of the k-th message on its channel, or
    ``("coll", ordinal, seq, n)``; ``seq`` is the waiting event and
    ``n`` the rank's events consumed so far.  It is sent back the
    sender's value, the ack, or its exit from the collective —
    ``evaluate(group, entries)``, the :class:`CollectiveGroup` and
    every rank's entry value in, one exit per rank out.

    Matching is by order (§4.1): the k-th send on a channel meets its
    k-th receive, which must name the send's size (one size per pair).
    Mailbox entries are deleted on delivery, so memory tracks only the
    traffic in flight; ``hwm`` is the most they ever held.  ``window``
    caps how many events a rank may run ahead of the least-advanced
    unfinished one (§4's trace buffer); a capped run that cannot move
    doubles it with a ``window-doubled`` warning.
    """

    def __init__(self, what: str, nprocs: int, window: int = 4096):
        self.what = what
        self.nprocs = nprocs
        self.window = window
        self.data: dict[tuple, tuple] = {}  # key -> (value, nbytes, seq) of the send
        self.ack: dict[tuple, object] = {}
        self.claims: dict[tuple, tuple] = {}  # data key -> (rank, seq, nbytes) of the receive
        self.warnings: list = []
        self.hwm = 0
        self._sent: dict[tuple, int] = defaultdict(int)
        self._posted: dict[tuple, int] = defaultdict(int)
        self._colls: dict[int, _CollState] = {}
        self._entered = [0] * nprocs

    def send(self, ch: tuple, nbytes: int, seq: int, value) -> tuple:
        """Publish ``value`` as the data of send event ``seq``, the next
        message on channel ``ch = (src, dst, tag)``; return its ack key."""
        k = self._sent[ch]
        self._sent[ch] = k + 1
        self.data[("d",) + ch + (k,)] = (value, nbytes, seq)
        return ("a",) + ch + (k,)

    def recv(self, ch: tuple, rank: int, seq: int, nbytes: int) -> tuple:
        """Post receive event ``seq`` of ``rank`` for the next message on
        channel ``ch``; return the data key a need on it waits for."""
        k = self._posted[ch]
        self._posted[ch] = k + 1
        key = ("d",) + ch + (k,)
        self.claims[key] = (rank, seq, nbytes)
        return key

    def acknowledge(self, key: tuple, value) -> None:
        """Publish the ack of the message with data key ``key``."""
        self.ack[("a",) + key[1:]] = value

    def enter(self, rank: int, ev: EventRecord, value) -> int:
        """Enter ``rank`` into collective ``ev`` with ``value``; return
        the instance's ordinal."""
        ordinal = ev.coll_seq if ev.coll_seq >= 0 else self._entered[rank]
        self._entered[rank] += 1
        self._colls.setdefault(ordinal, _CollState()).entries[rank] = (value, ev)
        return ordinal

    def run(self, procs: Sequence, evaluate) -> list:
        """Drive the rank generators ``procs`` to their ends; return what
        each returned.  Raises :func:`stalled` when no rank can move, and
        :func:`unpaired` at the end if a transfer lost a half."""
        nprocs = self.nprocs
        results: list = [None] * nprocs
        needs: list = [None] * nprocs
        consumed = [0] * nprocs
        done = [False] * nprocs

        def step(rank: int, value) -> None:
            try:
                need = procs[rank].send(value)
            except StopIteration as stop:
                results[rank] = stop.value
                done[rank] = True
                return
            needs[rank] = need
            consumed[rank] = need[-1]

        for rank in range(nprocs):
            step(rank, None)
        window = self.window
        while not all(done):
            progressed = capped = False
            floor = min(consumed[r] for r in range(nprocs) if not done[r])
            for rank in range(nprocs):
                if done[rank]:
                    continue
                if consumed[rank] - floor > window:
                    capped = True
                    continue
                value = self._satisfy(rank, needs[rank], evaluate)
                if value is _UNMET:
                    continue
                step(rank, value)
                progressed = True
            self.hwm = max(self.hwm, len(self.data) + len(self.ack))
            if not progressed:
                if not capped:
                    raise stalled(self.what, [(r, needs[r]) for r in range(nprocs) if not done[r]])
                self.warnings.append(
                    warn(
                        f"window {window} too small for matching distance; doubling",
                        code="window-doubled",
                    )
                )
                window *= 2
        self._check_paired()
        return results

    def _satisfy(self, rank: int, need: tuple, evaluate):
        kind, key = need[0], need[1]
        if kind == "data":
            sent = self.data.pop(key, None)
            if sent is None:
                return _UNMET
            value, nbytes, _ = sent
            at, seq, wanted = self.claims.pop(key)
            if nbytes != wanted:
                raise size_mismatch(at, seq, key[1], key[3], wanted, nbytes)
            return value
        if kind == "ack":
            return self.ack.pop(key, _UNMET)
        st = self._colls.get(key)
        if st is None or len(st.entries) < self.nprocs:
            return _UNMET
        if st.exits is None:
            entries = [st.entries[r] for r in range(self.nprocs)]
            group = _collective_group(key, [ev for _, ev in entries])
            st.exits = evaluate(group, [value for value, _ in entries])
        st.consumed += 1
        if st.consumed == self.nprocs:
            del self._colls[key]
        return st.exits[rank]

    def _check_paired(self) -> None:
        """Raise once every rank is done if a transfer lost a half: a send
        whose data no receive took, or a receive no send reached (a
        never-completed IRECV).  A never-completed IRECV whose send did
        arrive leaves both halves behind; that pair is whole.  An eager
        send never waits, so without this check a dropped receive would
        go unnoticed."""
        leftovers = [
            ("send", (key[1], sent[2]), key[1:4])
            for key, sent in self.data.items()
            if key not in self.claims
        ]
        leftovers += [
            ("recv", claim[:2], key[1:4])
            for key, claim in self.claims.items()
            if key not in self.data
        ]
        if leftovers:
            raise unpaired(leftovers)


def match_events(per_rank: Sequence) -> MatchResult:
    """Match a complete run's events (in-core variant).

    ``per_rank`` holds each rank's :class:`~repro.trace.columns.
    EventColumns` (or its events, which are put into columns first).
    Walks every rank's events in order exactly once (§4.1): FIFO
    channel queues pair sends with receives; request-id maps link
    nonblocking operations to their completions; collective ordinals
    group collective calls.
    """
    from repro.trace.columns import EventColumns

    frames = [
        f if isinstance(f, EventColumns) else EventColumns.from_events(f) for f in per_rank
    ]
    with obs.span("match_events"):
        result = _match_events_impl(frames)
        obs.span_add("match.transfers", len(result.transfer_of))
        obs.span_add("match.completions", len(result.completion_of))
        obs.span_add("match.collectives", len(result.collectives))
        if result.uncompleted:
            obs.span_add("match.uncompleted", len(result.uncompleted))
        return result


_SEND, _RECV, _SENDRECV = int(EventKind.SEND), int(EventKind.RECV), int(EventKind.SENDRECV)
_ISEND, _IRECV = int(EventKind.ISEND), int(EventKind.IRECV)
_COMPLETION = frozenset(int(k) for k in COMPLETION_KINDS)
_COLLECTIVE = frozenset(int(k) for k in COLLECTIVE_KINDS)
_ROOTED = frozenset(int(k) for k in ROOTED_COLLECTIVES)
_KINDS = tuple(EventKind)


def _match_events_impl(frames: Sequence[EventColumns]) -> MatchResult:
    result = MatchResult()
    transfer_of = result.transfer_of
    reverse_transfer_of = result.reverse_transfer_of
    transfer_index = result.transfer_index
    pending_sends: dict[tuple, deque] = defaultdict(deque)
    pending_recvs: dict[tuple, deque] = defaultdict(deque)
    send_counts: dict[tuple, int] = defaultdict(int)
    collectives: dict[int, dict] = {}

    def send(key: tuple, channel: tuple, nbytes: int) -> None:
        transfer_index[key] = send_counts[channel]
        send_counts[channel] += 1
        q = pending_recvs[channel]
        if q:
            rkey, recv_nbytes = q.popleft()
            if recv_nbytes != nbytes:
                src, _, tag = channel
                raise size_mismatch(*rkey, src, tag, recv_nbytes, nbytes)
            transfer_of[key] = rkey
            reverse_transfer_of[rkey] = key
        else:
            pending_sends[channel].append((key, nbytes))

    def recv(key: tuple, channel: tuple, nbytes: int) -> None:
        q = pending_sends[channel]
        if q:
            skey, send_nbytes = q.popleft()
            if send_nbytes != nbytes:
                src, _, tag = channel
                raise size_mismatch(*key, src, tag, nbytes, send_nbytes)
            transfer_of[skey] = key
            reverse_transfer_of[key] = skey
        else:
            pending_recvs[channel].append((key, nbytes))

    for rank, f in enumerate(frames):
        open_reqs: dict[int, Key] = {}
        coll_counter = 0
        done = f.done.tolist()
        done_ptr = f.done_ptr.tolist()
        for i, (kind, ev_rank, seq, peer, tag, nbytes, req, root, coll_seq) in enumerate(
            zip(
                f.kind.tolist(),
                f.rank.tolist(),
                f.seq.tolist(),
                f.peer.tolist(),
                f.tag.tolist(),
                f.nbytes.tolist(),
                f.req.tolist(),
                f.root.tolist(),
                f.coll_seq.tolist(),
            )
        ):
            key = (ev_rank, seq)
            if kind == _SEND or kind == _ISEND:
                send(key, (ev_rank, peer, tag), nbytes)
            elif kind == _RECV or kind == _IRECV:
                recv(key, (peer, ev_rank, tag), nbytes)
            elif kind == _SENDRECV:
                send(key, (ev_rank, peer, tag), nbytes)
                recv(key, (int(f.recv_peer[i]), ev_rank, int(f.recv_tag[i])), int(f.recv_nbytes[i]))

            if kind == _ISEND or kind == _IRECV:
                open_reqs[req] = key
            elif kind in _COMPLETION:
                for rid in done[done_ptr[i] : done_ptr[i + 1]]:
                    src_key = open_reqs.pop(rid, None)
                    if src_key is None:
                        raise unknown_request(rank, seq, rid)
                    result.completion_of[src_key] = key
            elif kind in _COLLECTIVE:
                ordinal = coll_seq if coll_seq >= 0 else coll_counter
                coll_counter += 1
                inst = collectives.setdefault(
                    ordinal,
                    {"kind": _KINDS[kind], "root": root, "nbytes": nbytes, "members": {}},
                )
                if inst["kind"] != kind:
                    raise MatchError(
                        f"collective #{ordinal}: rank {rank} called {_KINDS[kind].name}, "
                        f"others called {inst['kind'].name}",
                        code="collective-mismatch",
                        rank=rank,
                        seq=seq,
                    )
                if kind in _ROOTED and inst["root"] != root:
                    raise MatchError(
                        f"collective #{ordinal} ({_KINDS[kind].name}): root mismatch "
                        f"({root} vs {inst['root']})",
                        code="collective-mismatch",
                        rank=rank,
                        seq=seq,
                    )
                if rank in inst["members"]:
                    raise MatchError(
                        f"rank {rank} appears twice in collective #{ordinal}",
                        code="collective-mismatch",
                        rank=rank,
                        seq=seq,
                    )
                inst["members"][rank] = key
                inst["nbytes"] = max(inst["nbytes"], nbytes)
        result.uncompleted.extend(open_reqs.values())

    # Unpaired pairwise events are a hard error: the run completed, so every
    # message had a counterpart (§4.1).
    leftovers = [("send", k, channel) for channel, q in pending_sends.items() for k, _ in q]
    leftovers += [("recv", k, channel) for channel, q in pending_recvs.items() for k, _ in q]
    if leftovers:
        raise unpaired(leftovers)

    nprocs = len(frames)
    for ordinal in sorted(collectives):
        inst = collectives[ordinal]
        if len(inst["members"]) != nprocs:
            missing = sorted(set(range(nprocs)) - set(inst["members"]))
            raise MatchError(
                f"collective #{ordinal} ({inst['kind'].name}) missing ranks {missing}",
                code="collective-mismatch",
            )
        result.collectives.append(
            CollectiveGroup(
                ordinal=ordinal,
                kind=inst["kind"],
                root=inst["root"],
                nbytes=inst["nbytes"],
                members=tuple(inst["members"][r] for r in range(nprocs)),
            )
        )
    return result
