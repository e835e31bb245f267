"""Dimemas-style trace replay — the baseline the paper compares against.

Section 1.1: "Dimemas ... is one such tool for performance prediction
of parallel programs using trace-based analysis.  The user specifies
the communication parameters of the target machine" — latency,
bandwidth, overheads — and the tool re-times the traced run under that
model.  Unlike the paper's graph-perturbation framework it rebuilds
*absolute* timings (so it can predict faster/slower base networks and
CPUs), but it has no stochastic noise model ("the model does not have
similar capabilities for analyzing the operating system's interference").

This module implements that replay semantics over our trace format:

* per-rank compute phases (gaps between traced events) are kept and
  scaled by ``cpu_factor``;
* point-to-point operations are re-timed under the target network
  (eager below the threshold, rendezvous above — the same protocol
  rules as :mod:`repro.mpisim.engine`);
* collectives are re-timed with the dissemination / binomial-tree
  algorithms of :mod:`repro.mpisim.collectives`.

Replay uses the same order-based matching as the analyzer (§4.1) and
the same wavefront scheduling as the streaming traversal, so it streams
and never needs synchronized clocks: all per-rank replay clocks start
at 0 at MPI_Init.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.matching import MatchError, stalled
from repro.mpisim.collectives import collective_exits
from repro.mpisim.network import NetworkModel
from repro.trace.events import COLLECTIVE_KINDS, EventKind, EventRecord

__all__ = ["ReplayParams", "ReplayResult", "replay", "replay_ladder"]


@dataclass(frozen=True)
class ReplayParams:
    """Target-machine parameters (the Dimemas machine file)."""

    latency: float = 1000.0
    bandwidth: float = 1.0
    send_overhead: float = 200.0
    recv_overhead: float = 200.0
    eager_threshold: int = 8192
    cpu_factor: float = 1.0  # target compute time = original * cpu_factor
    call_overhead: float = 10.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        if self.cpu_factor <= 0:
            raise ValueError("cpu_factor must be > 0")

    def network(self) -> NetworkModel:
        return NetworkModel(
            latency=self.latency,
            bandwidth=self.bandwidth,
            send_overhead=self.send_overhead,
            recv_overhead=self.recv_overhead,
            eager_threshold=self.eager_threshold,
        )

    def wire(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.eager_threshold


@dataclass
class ReplayResult:
    """Re-timed run on the target machine."""

    finish_times: list
    original_finish_times: list
    params: ReplayParams

    @property
    def makespan(self) -> float:
        return max(self.finish_times)

    @property
    def original_makespan(self) -> float:
        return max(self.original_finish_times)

    @property
    def speedup(self) -> float:
        """Original makespan over replayed makespan (>1 = target faster)."""
        return self.original_makespan / self.makespan if self.makespan else float("inf")


class _CollState:
    def __init__(self, nprocs: int):
        self.entries: dict[int, tuple] = {}  # rank -> (clock, ev)
        self.exits: list | None = None
        self.consumed = 0
        self.nprocs = nprocs

    def full(self) -> bool:
        return len(self.entries) == self.nprocs


_UNMET = object()
_PRIME = object()


def replay(trace_set, params: ReplayParams | None = None) -> ReplayResult:
    """Re-time a traced run under the target machine parameters.

    The trace must describe a complete run (same guarantees the
    analyzer requires, §4.3); replay is deterministic (no noise — the
    Dimemas limitation the paper's framework addresses).
    """
    params = params or ReplayParams()
    nprocs = trace_set.nprocs
    data_mail: dict[tuple, float] = {}  # ready/arrival times keyed by channel ordinal
    ack_mail: dict[tuple, float] = {}
    colls: dict[int, _CollState] = {}
    net = params.network()
    no_noise = lambda rank, rng, t, duration: 0.0
    rngs = [np.random.default_rng(0) for _ in range(nprocs)]
    net_rng = np.random.default_rng(0)

    def eval_collective(state: _CollState, ordinal: int) -> list[float]:
        kinds = {e.kind for _, e in state.entries.values()}
        roots = {e.root for _, e in state.entries.values()}
        if len(kinds) != 1 or len(roots) != 1:
            raise MatchError(f"collective #{ordinal}: inconsistent kind/root")
        kind = next(iter(kinds))
        root = next(iter(roots))
        nbytes = max(e.nbytes for _, e in state.entries.values())
        entries = [state.entries[r][0] for r in range(nprocs)]
        return collective_exits(
            kind, entries, root if root >= 0 else 0, nbytes, net, no_noise, rngs, net_rng
        )

    def rank_proc(rank: int, events: Iterator[EventRecord]):
        send_idx: dict[tuple, int] = defaultdict(int)
        recv_idx: dict[tuple, int] = defaultdict(int)
        req_state: dict[int, tuple] = {}
        coll_counter = 0
        clock = 0.0
        prev: EventRecord | None = None
        n = 0

        for ev in events:
            n += 1
            if prev is not None:
                clock += (ev.t_start - prev.t_end) * params.cpu_factor
            kind = ev.kind

            if kind in (EventKind.INIT, EventKind.FINALIZE):
                clock += params.call_overhead

            elif kind == EventKind.SEND:
                ch = (rank, ev.peer, ev.tag)
                k = send_idx[ch]
                send_idx[ch] += 1
                ready = clock + params.send_overhead
                if params.is_eager(ev.nbytes):
                    data_mail[("d",) + ch + (k,)] = ready + params.wire(ev.nbytes)
                    clock = ready
                else:
                    # Rendezvous: publish readiness; block for the ack.
                    data_mail[("d",) + ch + (k,)] = ready
                    clock = yield ("ack", ("a",) + ch + (k,), ev.seq, n)

            elif kind == EventKind.RECV:
                ch = (ev.peer, rank, ev.tag)
                k = recv_idx[ch]
                recv_idx[ch] += 1
                incoming = yield ("data", ("d",) + ch + (k,), ev.seq, n)
                if params.is_eager(ev.nbytes):
                    clock = max(clock, incoming) + params.recv_overhead
                else:
                    start = max(clock, incoming)  # rendezvous handshake
                    clock = start + params.wire(ev.nbytes) + params.recv_overhead
                    ack_mail[("a",) + ch + (k,)] = clock + params.latency

            elif kind == EventKind.ISEND:
                ch = (rank, ev.peer, ev.tag)
                k = send_idx[ch]
                send_idx[ch] += 1
                ready = clock + params.send_overhead
                if params.is_eager(ev.nbytes):
                    data_mail[("d",) + ch + (k,)] = ready + params.wire(ev.nbytes)
                    req_state[ev.req] = ("done_at", ready)
                else:
                    data_mail[("d",) + ch + (k,)] = ready
                    req_state[ev.req] = ("ack", ("a",) + ch + (k,))
                clock = ready

            elif kind == EventKind.IRECV:
                ch = (ev.peer, rank, ev.tag)
                k = recv_idx[ch]
                recv_idx[ch] += 1
                clock += params.call_overhead
                req_state[ev.req] = ("recv", ("d",) + ch + (k,), ev.nbytes, clock)
                if not params.is_eager(ev.nbytes):
                    # Rendezvous against a posted receive: the handshake can
                    # start once both sides are ready; the ack reaches the
                    # sender one transfer + one latency later.
                    pass  # resolved when the claim is consumed below

            elif kind.is_completion:
                done = clock
                for rid in ev.completed:
                    state = req_state.pop(rid, None)
                    if state is None:
                        raise MatchError(f"rank {rank} completes unknown request {rid}")
                    if state[0] == "done_at":
                        done = max(done, state[1])
                    elif state[0] == "ack":
                        done = max(done, (yield ("ack", state[1], ev.seq, n)))
                    elif state[0] == "recv":
                        _, key, nbytes, posted = state
                        incoming = yield ("data", key, ev.seq, n)
                        if params.is_eager(nbytes):
                            arrival = max(incoming, posted) + params.recv_overhead
                        else:
                            start = max(incoming, posted)
                            arrival = start + params.wire(nbytes) + params.recv_overhead
                            ack_mail[("a",) + (key[1], key[2], key[3], key[4])] = (
                                arrival + params.latency
                            )
                        done = max(done, arrival)
                clock = max(clock, done) + params.call_overhead

            elif kind == EventKind.SENDRECV:
                ch_s = (rank, ev.peer, ev.tag)
                ks = send_idx[ch_s]
                send_idx[ch_s] += 1
                ready = clock + params.send_overhead
                if params.is_eager(ev.nbytes):
                    data_mail[("d",) + ch_s + (ks,)] = ready + params.wire(ev.nbytes)
                    send_done = ready
                else:
                    data_mail[("d",) + ch_s + (ks,)] = ready
                    send_done = None  # resolved via ack below
                ch_r = (ev.recv_peer, rank, ev.recv_tag)
                kr = recv_idx[ch_r]
                recv_idx[ch_r] += 1
                incoming = yield ("data", ("d",) + ch_r + (kr,), ev.seq, n)
                if params.is_eager(ev.recv_nbytes):
                    recv_done = max(clock, incoming) + params.recv_overhead
                else:
                    start = max(clock, incoming)
                    recv_done = start + params.wire(ev.recv_nbytes) + params.recv_overhead
                    ack_mail[("a",) + ch_r + (kr,)] = recv_done + params.latency
                if send_done is None:
                    send_done = yield ("ack", ("a",) + ch_s + (ks,), ev.seq, n)
                clock = max(send_done, recv_done)

            elif kind in COLLECTIVE_KINDS:
                ordinal = ev.coll_seq if ev.coll_seq >= 0 else coll_counter
                coll_counter += 1
                st = colls.setdefault(ordinal, _CollState(nprocs))
                st.entries[rank] = (clock, ev)
                exit_time = yield ("coll", ordinal, ev.seq, n)
                # The engine floors every collective exit at entry + call
                # overhead (a rank that contributes nothing still pays the
                # call itself — e.g. rank 0 of a Scan).
                clock = max(exit_time, clock + params.call_overhead)

            prev = ev
        return (clock, n)

    # ---------------------------------------------------------------- scheduler
    finish = [0.0] * nprocs
    consumed = [0] * nprocs
    done = [False] * nprocs
    procs = [rank_proc(r, trace_set.events_of(r)) for r in range(nprocs)]
    needs: list = [None] * nprocs

    def advance(rank: int, value) -> None:
        try:
            need = next(procs[rank]) if value is _PRIME else procs[rank].send(value)
        except StopIteration as stop:
            finish[rank], consumed[rank] = stop.value
            done[rank] = True
            needs[rank] = None
            return
        consumed[rank] = need[-1]
        needs[rank] = need

    def satisfy(rank: int):
        need = needs[rank]
        kind = need[0]
        if kind == "data":
            return data_mail.pop(need[1]) if need[1] in data_mail else _UNMET
        if kind == "ack":
            return ack_mail.pop(need[1]) if need[1] in ack_mail else _UNMET
        # collective
        ordinal = need[1]
        st = colls.get(ordinal)
        if st is None or not st.full():
            return _UNMET
        if st.exits is None:
            st.exits = eval_collective(st, ordinal)
        value = st.exits[rank]
        st.consumed += 1
        if st.consumed == nprocs:
            del colls[ordinal]
        return value

    for rank in range(nprocs):
        advance(rank, _PRIME)
    while not all(done):
        progressed = False
        for rank in range(nprocs):
            if done[rank]:
                continue
            value = satisfy(rank)
            if value is _UNMET:
                continue
            advance(rank, value)
            progressed = True
        if not progressed:
            raise stalled("replay", [(r, needs[r]) for r in range(nprocs) if not done[r]])

    originals = []
    for rank in range(nprocs):
        events = list(trace_set.events_of(rank))
        originals.append(events[-1].t_end - events[0].t_start if events else 0.0)
    return ReplayResult(finish_times=finish, original_finish_times=originals, params=params)


def _replay_worker(payload, params: ReplayParams) -> ReplayResult:
    """Worker body for :func:`replay_ladder`: one target machine."""
    return replay(payload, params)


def replay_ladder(
    trace_set, params_list: list[ReplayParams], jobs: int | None = 0
) -> list[ReplayResult]:
    """Replay one trace under several target machines (a what-if ladder).

    Each point is an independent deterministic replay, so the ladder
    parallelizes over worker processes exactly like the analyzer's
    sweeps (``jobs`` convention of :mod:`repro.core.parallel`); results
    are returned in ``params_list`` order and are identical for any
    backend.
    """
    from repro.core.parallel import resolve_backend

    backend = resolve_backend(jobs)
    return backend.map(_replay_worker, list(params_list), payload=trace_set)
