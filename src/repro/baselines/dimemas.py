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

Replay runs on the streaming traversal's scheduler,
:class:`~repro.core.matching.RankScheduler`: order-based matching
(§4.1), one rank generator per rank, the same lookahead window.  So it
reads each rank once, never needs synchronized clocks (all per-rank
replay clocks start at 0 at MPI_Init), and refuses what the traversal
refuses — a trace that stalls, a receive whose size differs from its
send's, a transfer left unpaired — instead of re-timing a run that did
not happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.matching import RankScheduler, unknown_request
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


def replay(trace_set, params: ReplayParams | None = None) -> ReplayResult:
    """Re-time a traced run under the target machine parameters.

    The trace must describe a complete run (same guarantees the
    analyzer requires, §4.3); replay is deterministic (no noise — the
    Dimemas limitation the paper's framework addresses).  A trace that
    is not a complete run is refused with the :class:`MatchError` the
    streaming traversal raises on it.
    """
    params = params or ReplayParams()
    nprocs = trace_set.nprocs
    sched = RankScheduler("replay", nprocs)
    net = params.network()
    no_noise = lambda rank, rng, t, duration: 0.0
    rngs = [np.random.default_rng(0) for _ in range(nprocs)]
    net_rng = np.random.default_rng(0)

    def exits(group, entries: list[float]) -> list[float]:
        return collective_exits(
            group.kind, entries, max(group.root, 0), group.nbytes, net, no_noise, rngs, net_rng
        )

    def rank_proc(rank: int, events: Iterator[EventRecord]):
        """Generator: re-times one rank's events, yielding the
        scheduler's needs (:class:`RankScheduler`).  Returns (replayed
        finish time, original span from the first event's start to the
        last one's end)."""
        req_state: dict[int, tuple] = {}
        clock = 0.0
        first: EventRecord | None = None
        prev: EventRecord | None = None
        n = 0

        def send_half(ev: EventRecord, clock: float) -> tuple:
            """Publish ``ev``'s data; return (ready time, ack key, None
            when eager: an eager send is done once it is ready)."""
            ready = clock + params.send_overhead
            ch = (rank, ev.peer, ev.tag)
            if params.is_eager(ev.nbytes):
                sched.send(ch, ev.nbytes, ev.seq, ready + params.wire(ev.nbytes))
                return ready, None
            # Rendezvous: publish readiness; the sender waits for the ack.
            return ready, sched.send(ch, ev.nbytes, ev.seq, ready)

        def landed(key: tuple, nbytes: int, posted: float, incoming: float) -> float:
            """When a receive posted at ``posted`` completes, given the
            sender's published time; a rendezvous transfer starts once
            both sides are ready and acknowledges one latency later."""
            start = max(posted, incoming)
            if params.is_eager(nbytes):
                return start + params.recv_overhead
            arrival = start + params.wire(nbytes) + params.recv_overhead
            sched.acknowledge(key, arrival + params.latency)
            return arrival

        for ev in events:
            n += 1
            if prev is None:
                first = ev
            else:
                clock += (ev.t_start - prev.t_end) * params.cpu_factor
            kind = ev.kind

            if kind in (EventKind.INIT, EventKind.FINALIZE):
                clock += params.call_overhead

            elif kind == EventKind.SEND:
                ready, ack_key = send_half(ev, clock)
                clock = ready if ack_key is None else (yield ("ack", ack_key, ev.seq, n))

            elif kind == EventKind.RECV:
                key = sched.recv((ev.peer, rank, ev.tag), rank, ev.seq, ev.nbytes)
                incoming = yield ("data", key, ev.seq, n)
                clock = landed(key, ev.nbytes, clock, incoming)

            elif kind == EventKind.ISEND:
                clock, ack_key = send_half(ev, clock)
                req_state[ev.req] = ("done_at", clock) if ack_key is None else ("ack", ack_key)

            elif kind == EventKind.IRECV:
                clock += params.call_overhead
                key = sched.recv((ev.peer, rank, ev.tag), rank, ev.seq, ev.nbytes)
                req_state[ev.req] = ("recv", key, ev.nbytes, clock)

            elif kind.is_completion:
                done = clock
                for rid in ev.completed:
                    state = req_state.pop(rid, None)
                    if state is None:
                        raise unknown_request(rank, ev.seq, rid)
                    if state[0] == "done_at":
                        done = max(done, state[1])
                    elif state[0] == "ack":
                        done = max(done, (yield ("ack", state[1], ev.seq, n)))
                    else:
                        _, key, nbytes, posted = state
                        incoming = yield ("data", key, ev.seq, n)
                        done = max(done, landed(key, nbytes, posted, incoming))
                clock = max(clock, done) + params.call_overhead

            elif kind == EventKind.SENDRECV:
                send_done, ack_key = send_half(ev, clock)
                ch = (ev.recv_peer, rank, ev.recv_tag)
                key = sched.recv(ch, rank, ev.seq, ev.recv_nbytes)
                incoming = yield ("data", key, ev.seq, n)
                recv_done = landed(key, ev.recv_nbytes, clock, incoming)
                if ack_key is not None:
                    send_done = yield ("ack", ack_key, ev.seq, n)
                clock = max(send_done, recv_done)

            elif kind in COLLECTIVE_KINDS:
                ordinal = sched.enter(rank, ev, clock)
                exit_time = yield ("coll", ordinal, ev.seq, n)
                # The engine floors every collective exit at entry + call
                # overhead (a rank that contributes nothing still pays the
                # call itself — e.g. rank 0 of a Scan).
                clock = max(exit_time, clock + params.call_overhead)

            prev = ev
        return clock, (prev.t_end - first.t_start if first is not None else 0.0)

    procs = [rank_proc(r, trace_set.events_of(r)) for r in range(nprocs)]
    finals = sched.run(procs, exits)
    return ReplayResult(
        finish_times=[clock for clock, _ in finals],
        original_finish_times=[span for _, span in finals],
        params=params,
    )


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
