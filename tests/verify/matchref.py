"""Test-only reference for :func:`repro.verify.analyze_matches`.

This is the pairwise form of the match-nondeterminism analysis: for
every wildcard receive it tests every send to the receive's rank one at
a time, with its own Kahn-ordered vector clocks.  It is slow (quadratic
Python calls) and kept only as a differential oracle: the production
analysis must return an equal :class:`~repro.verify.MatchAnalysis`,
tuple order included.

Run as a module, it prints the ``matches`` block ``repro-verify
--format json`` reports for one trace set::

    python -m tests.verify.matchref --traces DIR --stem STEM
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from repro.core import build_graph
from repro.core.builder import BuildResult
from repro.trace import TraceSet
from repro.trace.events import EventKind, EventRecord
from repro.verify.matches import DeadlockChain, MatchAnalysis, MatchRace

Key = tuple[int, int]


_RECV_KINDS = frozenset({EventKind.RECV, EventKind.IRECV, EventKind.SENDRECV})


def _recv_signature(ev: EventRecord) -> tuple[int | None, int | None]:
    """The *posted* (source, tag) of a receive; None = wildcard."""
    if ev.kind == EventKind.SENDRECV:
        return (
            None if ev.src_any else ev.recv_peer,
            None if ev.tag_any else ev.recv_tag,
        )
    return (None if ev.src_any else ev.peer, None if ev.tag_any else ev.tag)


def _send_meta(ev: EventRecord) -> tuple[int, int, int]:
    """(dest, tag, nbytes) of a send-side event (send half of SENDRECV)."""
    return ev.peer, ev.tag, ev.nbytes


def _compat(recv_ev: EventRecord, send_ev: EventRecord) -> bool:
    src, tag = _recv_signature(recv_ev)
    _, s_tag, _ = _send_meta(send_ev)
    return (src is None or src == send_ev.rank) and (tag is None or tag == s_tag)


class _HappensBefore:
    """Vector clocks over all events; ``hb(a, b)`` in O(1).

    ``VC[e][k]`` is the number of rank-``k`` events in ``e``'s causal
    past (including ``e`` itself for ``k == e.rank``), so
    ``hb(a, b) == VC[b][a.rank] > a.seq`` for ``a != b``.
    """

    def __init__(
        self, events: list[list[EventRecord]], preds: dict[Key, list[Key]]
    ) -> None:
        self.nprocs = len(events)
        self._base = [0] * (self.nprocs + 1)
        for r, evs in enumerate(events):
            self._base[r + 1] = self._base[r] + len(evs)
        n = self._base[-1]
        self.vc = np.zeros((n, self.nprocs), dtype=np.int64)
        # Kahn over program order + cross edges.
        indeg = np.zeros(n, dtype=np.int64)
        succs: dict[int, list[int]] = {}
        for r, evs in enumerate(events):
            for ev in evs:
                i = self.index(ev.key)
                if ev.seq > 0:
                    indeg[i] += 1
                    succs.setdefault(self.index((r, ev.seq - 1)), []).append(i)
                for p in preds.get(ev.key, ()):
                    indeg[i] += 1
                    succs.setdefault(self.index(p), []).append(i)
        ready = [i for i in range(n) if indeg[i] == 0]
        done = 0
        flat = [ev for evs in events for ev in evs]
        while ready:
            i = ready.pop()
            done += 1
            ev = flat[i]
            vc = self.vc[i]
            if ev.seq > 0:
                np.maximum(vc, self.vc[self.index((ev.rank, ev.seq - 1))], out=vc)
            for p in preds.get(ev.key, ()):
                np.maximum(vc, self.vc[self.index(p)], out=vc)
            vc[ev.rank] = ev.seq + 1
            for j in succs.get(i, ()):
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if done != n:
            raise ValueError(
                "happens-before graph has a cycle — trace and matching are inconsistent"
            )

    def index(self, key: Key) -> int:
        return self._base[key[0]] + key[1]

    def hb(self, a: Key, b: Key) -> bool:
        """Strict happens-before: ``a`` precedes ``b`` in every legal
        execution consistent with the recorded orderings."""
        if a == b:
            return False
        return bool(self.vc[self.index(b)][a[0]] > a[1])


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


def reference_clocks(build: BuildResult) -> _HappensBefore:
    """Vector clocks built by Kahn's algorithm, one event at a time."""
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


def reference(build: BuildResult) -> MatchAnalysis:
    """The pairwise analysis: every (wildcard receive, send) pair tested
    one Python call at a time."""
    events = build.events
    match = build.match
    hb = reference_clocks(build)

    # Send events grouped by destination rank.
    sends_to: dict[int, list[Key]] = {}
    for skey in match.transfer_of:
        dest, _, _ = _send_meta(events[skey[0]][skey[1]])
        sends_to.setdefault(dest, []).append(skey)

    def recv_completion(key: Key) -> Key:
        return _completion_key(events[key[0]][key[1]], match.completion_of)

    def feasible_senders(rkey: Key) -> list[Key]:
        """Senders ``r`` could legally have matched (HB-pruned)."""
        rev = events[rkey[0]][rkey[1]]
        r_c = recv_completion(rkey)
        out = []
        for skey in sends_to.get(rkey[0], ()):
            sev = events[skey[0]][skey[1]]
            if _compat(rev, sev) and not hb.hb(r_c, skey):
                out.append(skey)
        return out

    races: list[MatchRace] = []
    deadlocks: list[DeadlockChain] = []
    n_wild = 0
    for rank_events in events:
        for r1 in rank_events:
            if r1.kind not in _RECV_KINDS or not (r1.src_any or r1.tag_any):
                continue
            n_wild += 1
            m1key = match.reverse_transfer_of.get(r1.key)
            if m1key is None:
                continue  # never resolved; nothing to compare against
            m1 = events[m1key[0]][m1key[1]]
            r1_c = recv_completion(r1.key)
            alternatives: list[Key] = []
            divergent: list[Key] = []
            for skey in sends_to.get(r1.rank, ()):
                if skey == m1key:
                    continue
                sev = events[skey[0]][skey[1]]
                if sev.rank == m1.rank:
                    continue  # non-overtaking: same-source order is fixed
                if not _compat(r1, sev) or hb.hb(r1_c, skey):
                    continue
                r2key = match.transfer_of[skey]
                r2 = events[r2key[0]][r2key[1]]
                if _compat(r2, m1) and not hb.hb(recv_completion(r2key), m1key):
                    # Swap-closable: r1 takes s, r2 takes m1.
                    alternatives.append(skey)
                    _, s_tag, s_nbytes = _send_meta(sev)
                    _, m_tag, m_nbytes = _send_meta(m1)
                    if s_tag != m_tag or s_nbytes != m_nbytes:
                        divergent.append(skey)
                elif not _compat(r2, m1):
                    # r1 could steal s, but s's receive cannot take m1:
                    # does r2 have any other feasible sender left?
                    others = [k for k in feasible_senders(r2key) if k != skey]
                    if not others:
                        deadlocks.append(
                            DeadlockChain(
                                recv=r1.key, matched=m1key, stolen=skey, starved=r2key
                            )
                        )
            if alternatives:
                races.append(
                    MatchRace(
                        recv=r1.key,
                        matched=m1key,
                        alternatives=tuple(alternatives),
                        divergent=tuple(divergent),
                    )
                )
    return MatchAnalysis(
        events=sum(len(e) for e in events),
        wildcard_receives=n_wild,
        races=tuple(races),
        deadlocks=tuple(deadlocks),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.verify.matchref",
        description="Print the reference match analysis of one trace set as JSON.",
    )
    parser.add_argument("--traces", required=True, help="trace directory")
    parser.add_argument("--stem", required=True, help="trace file stem")
    args = parser.parse_args(argv)
    build = build_graph(TraceSet.open(args.traces, args.stem))
    print(json.dumps(reference(build).as_dict(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
