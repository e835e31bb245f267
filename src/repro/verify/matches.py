"""Match-nondeterminism and deadlock-potential analysis.

A trace records *one* completed run, including which sender each
wildcard receive (``ANY_SOURCE``/``ANY_TAG``) actually matched.  The
MPI standard permits other matchings; this module asks, statically,
whether any alternative was genuinely feasible — and whether some
alternative would have left a receive with no sender (a would-block
chain, i.e. deadlock potential under reordered matches).

The feasibility test is conservative in the sound direction.  It builds
a happens-before (HB) order over all events via vector clocks:

* per-rank program order;
* matched send -> receive *completion point* (the RECV/SENDRECV event
  itself, or the completion op that retired an IRECV's request);
* collectives as synchronization points: everything before any member's
  call happens-before everything after every member's call.

``a`` happens-before ``b`` iff ``a != b`` and ``VC[b][a.rank] >
a.seq``, one clock lookup.  HB derived this way
under-approximates the true ordering (it only uses orderings every
legal execution must respect), so "no HB edge" over-approximates
concurrency: a reported race can at worst be infeasible for a subtler
reason, but no feasible race is missed.

A sender ``s`` is a *swap-closable alternative* for wildcard receive
``r1`` (matched to ``m1``) when:

* ``s`` is destined to ``r1``'s rank and compatible with ``r1``'s
  posted (wildcard) signature;
* ``s`` comes from a different rank than ``m1`` — same-source messages
  to one destination cannot overtake each other under MPI's
  non-overtaking rule, so they are never genuine alternatives;
* ``r1``'s completion does not happen-before ``s`` (otherwise ``s``
  was provably posted too late to race);
* the receive ``r2`` that actually took ``s`` could accept ``m1``
  instead (signature-compatible, and ``r2``'s completion does not
  happen-before ``m1``) — the swapped matching must be closable.

When instead ``r1`` could steal ``s`` but ``s``'s actual receive ``r2``
cannot accept ``m1`` and has no other feasible sender, the swapped
execution blocks ``r2`` forever: a deadlock-potential chain.

The tests run as numpy masks, not one Python call per (receive, send)
pair.  For each rank that posts a wildcard receive, its incoming sends
are lowered once into columns (:class:`_SendColumns`): sender rank,
tag, payload size, clock row, and the posted signature and completion
point of the receive ``r2`` that took each send.  One mask over those
columns then gives a wildcard receive's candidates, two more over the
candidates give swap-closability and divergence, and the deadlock
branch runs the same feasibility mask for ``r2``.  The cost is one
mask per wildcard receive over its rank's sends; no (receive × send)
matrix is ever allocated.  The pairwise form is kept as a test oracle
in ``tests/verify/matchref.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.builder import BuildResult
from repro.trace.events import EventKind, EventRecord

__all__ = ["DeadlockChain", "MatchAnalysis", "MatchRace", "analyze_matches"]

Key = tuple[int, int]


@dataclass(frozen=True)
class MatchRace:
    """One wildcard receive with at least one swap-closable alternative."""

    recv: Key
    matched: Key
    alternatives: tuple[Key, ...]
    divergent: tuple[Key, ...]
    """Alternatives whose tag or payload size differs from the matched
    send — swapping them is observable by the program."""

    def as_dict(self) -> dict[str, Any]:
        return {
            "recv": list(self.recv),
            "matched": list(self.matched),
            "alternatives": [list(k) for k in self.alternatives],
            "divergent": [list(k) for k in self.divergent],
        }


@dataclass(frozen=True)
class DeadlockChain:
    """A would-block chain: if ``recv`` stole ``stolen`` from ``starved``,
    ``starved`` would have no remaining feasible sender."""

    recv: Key
    matched: Key
    stolen: Key
    starved: Key

    def as_dict(self) -> dict[str, Any]:
        return {
            "recv": list(self.recv),
            "matched": list(self.matched),
            "stolen": list(self.stolen),
            "starved": list(self.starved),
        }


@dataclass(frozen=True)
class MatchAnalysis:
    """Everything the MPG31x rules report on."""

    events: int
    wildcard_receives: int
    races: tuple[MatchRace, ...]
    deadlocks: tuple[DeadlockChain, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "wildcard_receives": self.wildcard_receives,
            "races": [r.as_dict() for r in self.races],
            "deadlocks": [d.as_dict() for d in self.deadlocks],
        }


_RECV_KINDS = frozenset({EventKind.RECV, EventKind.IRECV, EventKind.SENDRECV})

Signature = tuple[int, bool, int, bool]


def _recv_signature(ev: EventRecord) -> Signature:
    """The *posted* (source, source is wildcard, tag, tag is wildcard)
    of a receive.  The flags are separate so that no tag value doubles
    as a wildcard."""
    if ev.kind == EventKind.SENDRECV:
        return ev.recv_peer, ev.src_any, ev.recv_tag, ev.tag_any
    return ev.peer, ev.src_any, ev.tag, ev.tag_any


class _HappensBefore:
    """Vector clocks over all events.

    ``VC[e][k]`` is the number of rank-``k`` events in ``e``'s causal
    past (including ``e`` itself for ``k == e.rank``), so ``a``
    happens-before ``b`` iff ``a != b`` and ``VC[b][a.rank] > a.seq``:
    ``a`` precedes ``b`` in every legal execution consistent with the
    recorded orderings.

    The clocks are filled rank by rank.  An event with no cross edge
    (no entry in ``preds``) only inherits its program predecessor's
    clock, so a run of such events is one slice assignment.  A rank
    stops at an event with a cross predecessor that is not filled yet
    and waits on that predecessor's rank; it is resumed once that rank
    has filled past it.  Ranks still waiting when none can run mean the
    edges form a cycle.
    """

    def __init__(
        self, events: list[list[EventRecord]], preds: dict[Key, list[Key]]
    ) -> None:
        self.nprocs = len(events)
        self._base = [0] * (self.nprocs + 1)
        for r, evs in enumerate(events):
            self._base[r + 1] = self._base[r] + len(evs)
        self.vc = vc = np.zeros((self._base[-1], self.nprocs), dtype=np.int64)
        lengths = [len(evs) for evs in events]
        # Per rank, the seqs that have cross predecessors, last first.
        joins: list[list[int]] = [[] for _ in events]
        for r, seq in preds:
            joins[r].append(seq)
        for seqs in joins:
            seqs.sort(reverse=True)
        filled = [0] * self.nprocs  # per rank: seqs below this are filled
        waiting: list[list[Key]] = [[] for _ in events]  # rank -> (seq, waiter)
        ready = list(range(self.nprocs))
        while ready:
            r = ready.pop()
            base, seq, seqs = self._base[r], filled[r], joins[r]
            while seq < lengths[r]:
                if seqs and seqs[-1] == seq:
                    sources = preds[(r, seq)]
                    late = [(k, q) for k, q in sources if q >= filled[k]]
                    if late:
                        k, q = late[0]
                        waiting[k].append((q, r))
                        break
                    row = vc[base + seq]
                    if seq > 0:
                        row[:] = vc[base + seq - 1]
                    for k, q in sources:
                        np.maximum(row, vc[self._base[k] + q], out=row)
                    row[r] = seq + 1
                    seqs.pop()
                    end = seq + 1
                else:
                    end = seqs[-1] if seqs else lengths[r]
                    run = vc[base + seq : base + end]
                    if seq > 0:
                        run[:] = vc[base + seq - 1]
                    run[:, r] = np.arange(seq + 1, end + 1)
                filled[r] = seq = end
            if waiting[r]:
                ready.extend(w for q, w in waiting[r] if q < seq)
                waiting[r] = [(q, w) for q, w in waiting[r] if q >= seq]
        if filled != lengths:
            raise ValueError(
                "happens-before graph has a cycle — trace and matching are inconsistent"
            )

    def index(self, key: Key) -> int:
        return self._base[key[0]] + key[1]


def _completion_key(ev: EventRecord, completion_of: dict) -> Key:
    """Where a receive's value becomes available on its rank."""
    if ev.kind == EventKind.IRECV:
        got = completion_of.get(ev.key)
        return (got[0], got[1]) if got is not None else ev.key
    return ev.key


def _collective_preds(
    build: BuildResult, preds: dict[Key, list[Key]]
) -> None:
    """Synchronization-point HB edges for every matched collective.

    For members ``a != b``: (entry) ``a``'s predecessor -> ``b``'s
    collective event, and (exit) ``a``'s collective event -> ``b``'s
    successor.  Both edge families point strictly forward in per-rank
    sequence, so they cannot create cycles.
    """
    events = build.events
    for group in build.match.collectives:
        members = [k for k in group.members if k is not None]
        for a in members:
            a_rank, a_seq = a
            for b in members:
                if b == a:
                    continue
                if a_seq > 0:
                    preds.setdefault(b, []).append((a_rank, a_seq - 1))
                nxt = (b[0], b[1] + 1)
                if nxt[1] < len(events[nxt[0]]):
                    preds.setdefault(nxt, []).append(a)


def _happens_before(build: BuildResult) -> _HappensBefore:
    """The clocks of program order, matched transfers and collectives."""
    events = build.events
    match = build.match
    preds: dict[Key, list[Key]] = {}
    # Matched send -> receive completion point.  A SENDRECV event is
    # both a send posting and a receive completion; treating it as
    # atomic would turn two mutually exchanging SENDRECVs into a
    # false HB cycle, so a SENDRECV sender's edge originates from
    # its program predecessor (the posting happens on entry, after
    # everything the rank did before — but not after the event's own
    # receive half completes).
    for skey, rkey in match.transfer_of.items():
        rev = events[rkey[0]][rkey[1]]
        sev = events[skey[0]][skey[1]]
        if sev.kind == EventKind.SENDRECV:
            if skey[1] == 0:
                continue
            src = (skey[0], skey[1] - 1)
        else:
            src = skey
        preds.setdefault(_completion_key(rev, match.completion_of), []).append(src)
    _collective_preds(build, preds)
    return _HappensBefore(events, preds)


class _SendColumns:
    """Every matched send to one destination rank, lowered to arrays.

    Positions follow ``match.transfer_of`` order, which fixes the order
    of a race's alternatives.  Besides each send's rank, tag, payload
    size and clock row, the columns carry the receive ``r2`` that
    actually took the send: its posted signature and its completion
    point.
    """

    def __init__(self, keys: list[Key], build: BuildResult, hb: _HappensBefore) -> None:
        events = build.events
        match = build.match
        self.keys = keys
        self.position = {k: i for i, k in enumerate(keys)}
        sends = [events[r][q] for r, q in keys]
        self.rank = np.array([s.rank for s in sends], dtype=np.int64)
        self.tag = np.array([s.tag for s in sends], dtype=np.int64)
        self.nbytes = np.array([s.nbytes for s in sends], dtype=np.int64)
        self.row = np.array([hb.index(k) for k in keys], dtype=np.int64)
        self.r2 = [match.transfer_of[k] for k in keys]
        takers = [events[r][q] for r, q in self.r2]
        posted = [_recv_signature(ev) for ev in takers]
        self.r2_src = np.array([sig[0] for sig in posted], dtype=np.int64)
        self.r2_src_any = np.array([sig[1] for sig in posted], dtype=bool)
        self.r2_tag = np.array([sig[2] for sig in posted], dtype=np.int64)
        self.r2_tag_any = np.array([sig[3] for sig in posted], dtype=bool)
        done = [_completion_key(ev, match.completion_of) for ev in takers]
        self.r2c_rank = np.array([c[0] for c in done], dtype=np.int64)
        self.r2c_seq = np.array([c[1] for c in done], dtype=np.int64)
        self._vc = hb.vc
        self._clock: dict[int, np.ndarray] = {}

    def feasible(self, sig: Signature, completion: Key) -> np.ndarray:
        """Mask of the sends a receive posted as ``sig`` and completing
        at ``completion`` could legally have matched: compatible with
        ``sig``, and not after ``completion`` in happens-before."""
        c_rank, c_seq = completion
        clock = self._clock.get(c_rank)
        if clock is None:
            clock = self._clock[c_rank] = self._vc[self.row, c_rank]
        ok = clock <= c_seq
        j = self.position.get(completion)
        if j is not None:
            ok[j] = True  # an event does not happen-before itself
        src, src_any, tag, tag_any = sig
        if not src_any:
            ok &= self.rank == src
        if not tag_any:
            ok &= self.tag == tag
        return ok


def analyze_matches(build: BuildResult) -> MatchAnalysis:
    """Run the full analysis over a build's trace + match results."""
    events = build.events
    match = build.match
    with obs.span("verify.matches", events=sum(len(e) for e in events)):
        hb = _happens_before(build)
        wildcards = [
            ev
            for evs in events
            for ev in evs
            if ev.kind in _RECV_KINDS and (ev.src_any or ev.tag_any)
        ]
        sends_to: dict[int, list[Key]] = {}
        if any(ev.key in match.reverse_transfer_of for ev in wildcards):
            for skey in match.transfer_of:
                sends_to.setdefault(events[skey[0]][skey[1]].peer, []).append(skey)
        lowered: dict[int, _SendColumns] = {}

        def columns(rank: int) -> _SendColumns:
            cols = lowered.get(rank)
            if cols is None:
                cols = lowered[rank] = _SendColumns(sends_to.get(rank, []), build, hb)
            return cols

        feasible_of: dict[Key, np.ndarray] = {}

        def feasible_senders(rkey: Key) -> np.ndarray:
            """Positions, in its rank's columns, of the senders ``rkey``
            could legally have matched."""
            got = feasible_of.get(rkey)
            if got is None:
                rev = events[rkey[0]][rkey[1]]
                mask = columns(rkey[0]).feasible(
                    _recv_signature(rev), _completion_key(rev, match.completion_of)
                )
                got = feasible_of[rkey] = np.flatnonzero(mask)
            return got

        races: list[MatchRace] = []
        deadlocks: list[DeadlockChain] = []
        for r1 in wildcards:
            m1key = match.reverse_transfer_of.get(r1.key)
            if m1key is None:
                continue  # never resolved; nothing to compare against
            m1 = events[m1key[0]][m1key[1]]
            cols = columns(r1.rank)
            # Non-overtaking: same-source order is fixed, so no send from
            # m1's rank (m1 included) is an alternative.
            mask = cols.feasible(_recv_signature(r1), _completion_key(r1, match.completion_of))
            mask &= cols.rank != m1.rank
            cand = np.flatnonzero(mask)
            if not cand.size:
                continue
            # Could s's receive r2 take m1 instead?  Compatible, and r2's
            # completion c2 does not happen-before m1 (c2 == m1 does not).
            takes_m1 = (cols.r2_src_any[cand] | (cols.r2_src[cand] == m1.rank)) & (
                cols.r2_tag_any[cand] | (cols.r2_tag[cand] == m1.tag)
            )
            c2_rank, c2_seq = cols.r2c_rank[cand], cols.r2c_seq[cand]
            before_m1 = (hb.vc[hb.index(m1key)][c2_rank] > c2_seq) & (
                (c2_rank != m1.rank) | (c2_seq != m1.seq)
            )
            alt = cand[takes_m1 & ~before_m1]
            if alt.size:
                # Swap-closable: r1 takes s, r2 takes m1.
                div = alt[(cols.tag[alt] != m1.tag) | (cols.nbytes[alt] != m1.nbytes)]
                races.append(
                    MatchRace(
                        recv=r1.key,
                        matched=m1key,
                        alternatives=tuple(cols.keys[i] for i in alt.tolist()),
                        divergent=tuple(cols.keys[i] for i in div.tolist()),
                    )
                )
            for i in cand[~takes_m1].tolist():
                # r1 could steal s, but s's receive cannot take m1: does
                # r2 have any other feasible sender left?
                skey, r2key = cols.keys[i], cols.r2[i]
                left = feasible_senders(r2key)
                if not left.size or (left.size == 1 and columns(r2key[0]).keys[left[0]] == skey):
                    deadlocks.append(
                        DeadlockChain(recv=r1.key, matched=m1key, stolen=skey, starved=r2key)
                    )
        analysis = MatchAnalysis(
            events=sum(len(e) for e in events),
            wildcard_receives=len(wildcards),
            races=tuple(races),
            deadlocks=tuple(deadlocks),
        )
        obs.span_add("verify.wildcards", len(wildcards))
        if races:
            obs.span_add("verify.races", len(races))
        if deadlocks:
            obs.span_add("verify.deadlocks", len(deadlocks))
        return analysis
