"""Delta-propagation shared parts and the streaming engine (§4.2, §6).

The in-core engine is the compiled plan (:mod:`repro.core.compiled`,
public as :func:`repro.core.propagate`); this module holds what every
engine shares — :class:`TraversalResult`, :data:`MODES` and the δ_eff
arithmetic of :class:`_DeltaApplier` — plus the engine that never
materializes the graph, and the absolute-clock extension
:func:`propagate_absolute`.  The object-graph reference oracle the
engines are tested against is :mod:`repro.testing.oracle`.

:class:`StreamingTraversal`
    Windowed: streams the per-rank traces through the same subgraph
    templates without ever materializing the graph — the paper's answer
    to "arbitrarily large trace files" (§1 difference (3), §6).  Each
    transfer's send and receive halves evaluate the builder's own
    :func:`~repro.core.primitives.transfer_deltas`, each collective its
    :func:`~repro.core.primitives.collective_edges`.  The ranks run on
    :class:`~repro.core.matching.RankScheduler`, the scheduler the
    Dimemas replay runs on too: it matches messages by order, refuses a
    receive whose size differs from its send's and a trace that stalls
    or leaves a transfer unpaired, and bounds memory by the lookahead
    window and the in-flight (unconsumed) message contributions, not by
    trace length.  Its results are bit-identical to the in-core engine's
    (deterministic per-edge sampling, see :mod:`repro.core.perturb`).

Delay semantics: every node carries ``D(v) = t'(v) − t(v)`` on its own
rank's local clock; ``D(v) = max over in-edges (D(u) + δ_eff)`` where
``δ_eff`` is the edge's sampled perturbation.  Two application modes:

``additive`` (default, §4.2 "the change is additively propagated")
    ``δ_eff = max(δ, −w)`` — deltas add on top of the observed edge
    weight ``w``; negative deltas (the §7 reduced-noise exploration) are
    clamped so no interval goes negative, preserving event order (§4.3).
``threshold`` (Eq. 1 literal)
    ``δ_eff = max(0, δ − w)`` — the perturbed interval is
    ``max(observed, δ)``, matching the ``t_ss + δ_os1`` form of Eq. (1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import obs
from repro.core.builder import BuildResult
from repro.core.diagnostics import warn
from repro.core.graph import DeltaKind, DeltaSpec, EdgeKind, Phase
from repro.core.matching import CollectiveGroup, MatchError, RankScheduler, unknown_request
from repro.core.perturb import PerturbationSpec
from repro.core.primitives import (
    BuildConfig,
    collective_edges,
    gap_edge,
    intra_event_edge,
    sub,
    transfer_deltas,
)
from repro.trace.events import COLLECTIVE_KINDS, EventKind, EventRecord

__all__ = [
    "TraversalResult",
    "propagate_absolute",
    "StreamingTraversal",
    "MODES",
]

MODES = ("additive", "threshold")


@dataclass
class TraversalResult:
    """Outcome of one perturbation propagation.

    ``final_delay[r]`` is rank r's runtime increase (its FINALIZE END
    delay); delays are cross-rank comparable even though timestamps are
    not, because they are *differences* on each rank's own clock.
    """

    final_delay: list
    final_local_times: list
    mode: str
    clamped_edges: int = 0
    warnings: list = field(default_factory=list)
    # In-core extras (None for streaming):
    node_delay: list | None = None
    edge_delta: list | None = None

    @property
    def max_delay(self) -> float:
        return max(self.final_delay)

    @property
    def mean_delay(self) -> float:
        return sum(self.final_delay) / len(self.final_delay)


class _DeltaApplier:
    """Shared δ_eff arithmetic (sampling + mode + clamping)."""

    def __init__(self, spec: PerturbationSpec, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.spec = spec
        self.mode = mode
        self.clamped = 0

    def effective(self, delta: DeltaSpec, weight: float) -> float:
        raw = self.spec.sample(delta, weight)
        if self.mode == "threshold":
            return max(0.0, raw - weight)
        if raw < -weight:
            self.clamped += 1
            return -weight
        return raw


# ---------------------------------------------------------------------------
# Absolute-clock recomputation
# ---------------------------------------------------------------------------

def propagate_absolute(
    build: BuildResult,
    spec: PerturbationSpec,
    mode: str = "additive",
    transfer_estimate=None,
) -> TraversalResult:
    """Absolute-timestamp recomputation with slack absorption (extension).

    Requires a build with ``absolute_weights=True`` — i.e. traces whose
    clocks are globally trusted (our simulator's validation runs; real
    clusters cannot provide this, which is why the paper's model works
    in deltas, §4.1).  Nodes are re-timed as

        t'(v) = max(over in-edges) t'(u) + w(u→v) + δ_eff(u→v)

    with message-edge weights taken from the observed cross-rank lags.
    Unlike the delta model, a perturbation smaller than a receiver's
    original waiting slack is *absorbed*: the receive completes when it
    originally did.  With zero deltas the original timestamps are
    reproduced exactly.

    Data-edge weights need care: the observed lag of a transfer whose
    receive was posted *late* includes the receiver's lateness, not just
    the causal transfer time, and using it verbatim forfeits exactly the
    slack absorption this mode exists for.  ``transfer_estimate`` — a
    callable ``(src, dst, nbytes) -> cycles`` returning the causal
    send-START→receive-END time (injection + latency + payload + receive
    overhead) — tightens those weights; without it a per-channel
    minimum-observed-lag heuristic is used (exact whenever at least one
    transfer on the channel found its receiver waiting).
    """
    if not build.config.absolute_weights:
        raise ValueError(
            "propagate_absolute requires a build with absolute_weights=True "
            "(globally trusted clocks)"
        )
    if mode != "additive":
        raise ValueError("propagate_absolute supports additive mode only")
    g = build.graph

    data_kinds = (DeltaKind.TRANSFER_OS, DeltaKind.TRANSFER)
    channel_min: dict[tuple, float] = {}
    if transfer_estimate is None:
        for e in g.edges:
            if e.kind == EdgeKind.MESSAGE and e.delta.kind in data_kinds:
                key = (e.delta.src, e.delta.dst)
                channel_min[key] = min(channel_min.get(key, math.inf), e.weight)

    def causal_weight(e) -> float:
        if e.kind == EdgeKind.LOCAL or e.delta.kind not in data_kinds:
            return e.weight
        if transfer_estimate is not None:
            return min(e.weight, transfer_estimate(e.delta.src, e.delta.dst, e.delta.nbytes))
        return min(e.weight, channel_min.get((e.delta.src, e.delta.dst), e.weight))

    weights = [causal_weight(e) for e in g.edges]

    # Delta application differs from the clock-free model: message edges
    # carry *signed* observed lags as weights, so the zero-floor clamp
    # must compare against local-edge weights only (a negative-lag ack
    # edge is a slack constraint, not a shrinkable interval).
    clamped = 0
    edge_delta = []
    for e in g.edges:
        raw = spec.sample(e.delta, e.weight if e.kind == EdgeKind.LOCAL else 0.0)
        if e.kind == EdgeKind.LOCAL and raw < -e.weight:
            clamped += 1
            edge_delta.append(-e.weight)
        else:
            edge_delta.append(raw)
    edges = g.edges
    t_new = [0.0] * len(g.nodes)
    for v in g.topological_order():
        node = g.nodes[v]
        base = node.t_local if not node.is_virtual else -math.inf
        ins = g.in_edge_ids(v)
        if ins:
            incoming = max(t_new[edges[ei].src] + weights[ei] + edge_delta[ei] for ei in ins)
            t_new[v] = max(base, incoming) if not node.is_virtual else incoming
        else:
            t_new[v] = base if not node.is_virtual else 0.0
    # Report per-rank delays relative to the original finalize times.
    final_delay: list[float] = []
    final_times: list[float] = []
    node_delay = [
        (t_new[n.node_id] - n.t_local) if not n.is_virtual else 0.0 for n in g.nodes
    ]
    for rank in range(g.nprocs):
        nid = g.final_node_of(rank)
        if nid is None:
            final_delay.append(0.0)
            final_times.append(0.0)
            continue
        final_delay.append(t_new[nid] - g.nodes[nid].t_local)
        final_times.append(t_new[nid])
    return TraversalResult(
        final_delay=final_delay,
        final_local_times=final_times,
        mode=f"absolute-{mode}",
        clamped_edges=clamped,
        node_delay=node_delay,
        edge_delta=edge_delta,
    )


# ---------------------------------------------------------------------------
# Streaming (windowed) traversal
# ---------------------------------------------------------------------------


def _eval_collective(
    group: CollectiveGroup,
    entries: Sequence[tuple],
    config: BuildConfig,
    applier: _DeltaApplier,
) -> list[float]:
    """Per-rank END-subevent delay of one collective instance.

    ``entries[r]`` is rank r's (START delay, END delay along its
    intra-event S→E edge).  Evaluates the *same* edge templates the
    in-core builder materializes (identical DeltaSpecs, identical uids)
    over a scratch endpoint→delay map, so streaming and in-core agree
    bit-for-bit.
    """
    nprocs = len(entries)
    edges = collective_edges(group, nprocs, config)
    starts = [sub(r, group.members[r][1], Phase.START) for r in range(nprocs)]
    ends = [sub(r, group.members[r][1], Phase.END) for r in range(nprocs)]

    # Kahn evaluation over the template's endpoint micro-graph: an edge may
    # fire only once its source value is FINAL (all of the source's own
    # in-edges fired), otherwise a fan-out edge could read a partially
    # accumulated hub.  END values are seeded with the rank's intra-event
    # path (S→E local edge) because reduce-style fan-out re-reads the
    # root's END and must see its full delay.
    values: dict[tuple, float] = {}
    indegree: dict[tuple, int] = {}
    out_by_src: dict[tuple, list] = {}
    for et in edges:
        indegree[et.dst] = indegree.get(et.dst, 0) + 1
        indegree.setdefault(et.src, indegree.get(et.src, 0))
        out_by_src.setdefault(et.src, []).append(et)
    for r in range(nprocs):
        values[starts[r]], values[ends[r]] = entries[r]
        indegree.setdefault(starts[r], 0)
        indegree.setdefault(ends[r], 0)

    ready = [ep for ep, deg in indegree.items() if deg == 0]
    fired = 0
    while ready:
        ep = ready.pop()
        for et in out_by_src.get(ep, ()):
            contrib = values[ep] + applier.effective(et.delta, et.weight)
            prev = values.get(et.dst, -math.inf)
            values[et.dst] = max(prev, contrib)
            indegree[et.dst] -= 1
            fired += 1
            if indegree[et.dst] == 0:
                ready.append(et.dst)
    if fired != len(edges):
        raise MatchError("collective template has a cycle (internal error)")
    return [values[ends[r]] for r in range(nprocs)]


class StreamingTraversal:
    """Windowed, never-in-core perturbation traversal (§6).

    Parameters
    ----------
    spec:
        Perturbation sampling policy.
    config:
        Graph-semantics knobs (must match any in-core build being
        compared against).
    mode:
        ``"additive"`` or ``"threshold"`` (see module docstring).
    window:
        Maximum number of events any rank may run ahead of the
        least-advanced unfinished rank.  Corresponds to the tunable
        trace buffer of §4; automatically doubled (with a warning) if a
        run's matching distance exceeds it.
    """

    def __init__(
        self,
        spec: PerturbationSpec,
        config: BuildConfig | None = None,
        mode: str = "additive",
        window: int = 4096,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.spec = spec
        self.config = config or BuildConfig()
        self.mode = mode
        self.window = window
        self.max_mailbox = 0  # high-water mark, reported for ABL2

    def run(self, trace_set) -> TraversalResult:
        with obs.span("streaming_traversal", mode=self.mode, window=self.window):
            applier = _DeltaApplier(self.spec, self.mode)
            sched = RankScheduler("streaming traversal", trace_set.nprocs, self.window)
            procs = [
                self._rank_proc(rank, trace_set.events_of(rank), sched, applier)
                for rank in range(trace_set.nprocs)
            ]
            finals = sched.run(
                procs, lambda group, entries: _eval_collective(group, entries, self.config, applier)
            )
            self.max_mailbox = max(self.max_mailbox, sched.hwm)
            obs.span_add("traversal.propagations")
            obs.gauge_max("window.occupancy_hwm", self.max_mailbox)
            if applier.clamped:
                obs.span_add("traversal.clamped_edges", applier.clamped)
            return TraversalResult(
                final_delay=[d for d, _ in finals],
                final_local_times=[t for _, t in finals],
                mode=self.mode,
                clamped_edges=applier.clamped,
                warnings=sched.warnings,
            )

    def _rank_proc(
        self,
        rank: int,
        events: Iterator[EventRecord],
        sched: RankScheduler,
        applier: _DeltaApplier,
    ):
        """Generator: walks one rank's events computing START/END delays,
        yielding the scheduler's needs (:class:`RankScheduler`).
        Returns (final_delay, final_local_time).
        """
        cfg = self.config
        req_state: dict[int, tuple] = {}
        prev: EventRecord | None = None
        d_prev_end = 0.0
        n = 0
        last_t_end = 0.0

        def recv_half(ev: EventRecord, d_start: float, local_end: float):
            """Receive half of ``ev`` (a generator, driven with ``yield
            from``): evaluates :func:`transfer_deltas` and returns the
            receive's END delay.

            The ack is published as soon as the subevent it leaves from
            is final — a posted receive's rendezvous ack before any
            blocking, so mutual exchanges never deadlock.  An IRECV only
            claims its data: the contribution lands at the completing
            wait (Fig. 3), and consuming the mailbox there keeps
            irecv-before-isend patterns from blocking at the post.
            """
            if ev.kind == EventKind.SENDRECV:
                ch, nbytes = (ev.recv_peer, rank, ev.recv_tag), ev.recv_nbytes
            else:
                ch, nbytes = (ev.peer, rank, ev.tag), ev.nbytes
            key = sched.recv(ch, rank, ev.seq, nbytes)
            data, ack, ack_phase = transfer_deltas(*ch, nbytes, key[-1], ev.kind, cfg)
            if ack is not None and ack_phase == Phase.START:
                sched.acknowledge(key, d_start + applier.effective(ack, 0.0))
            if ev.kind == EventKind.IRECV:
                req_state[ev.req] = ("claim", key, data)
                d_end = local_end
            else:
                d_src = yield ("data", key, ev.seq, n)
                d_end = max(local_end, d_src + applier.effective(data, 0.0))
            if ack is not None and ack_phase == Phase.END:
                sched.acknowledge(key, d_end + applier.effective(ack, 0.0))
            return d_end

        for ev in events:
            n += 1
            last_t_end = ev.t_end
            if prev is not None:
                et = gap_edge(prev, ev)
                d_start = d_prev_end + applier.effective(et.delta, et.weight)
            else:
                d_start = 0.0
            intra = intra_event_edge(ev)
            local_end = d_start + applier.effective(intra.delta, intra.weight)
            kind = ev.kind
            d_end = local_end

            if kind in (EventKind.SEND, EventKind.ISEND, EventKind.SENDRECV):
                ack_key = sched.send((rank, ev.peer, ev.tag), ev.nbytes, ev.seq, d_start)
                if not cfg.models_ack(ev.nbytes):
                    ack_key = None  # eager: the send never waits for an ack
                if kind == EventKind.ISEND:
                    req_state[ev.req] = ("ack", ack_key)
                else:
                    if kind == EventKind.SENDRECV:
                        d_end = yield from recv_half(ev, d_start, local_end)
                    if ack_key is not None:
                        d_end = max(d_end, (yield ("ack", ack_key, ev.seq, n)))

            elif kind in (EventKind.RECV, EventKind.IRECV):
                d_end = yield from recv_half(ev, d_start, local_end)

            elif kind.is_completion:
                for rid in ev.completed:
                    state = req_state.pop(rid, None)
                    if state is None:
                        raise unknown_request(rank, ev.seq, rid)
                    if state[0] == "claim":
                        d_src = yield ("data", state[1], ev.seq, n)
                        d_end = max(d_end, d_src + applier.effective(state[2], 0.0))
                    elif state[1] is not None:
                        d_end = max(d_end, (yield ("ack", state[1], ev.seq, n)))
                    # ("ack", None): eager isend — nothing lands here.

            elif kind in COLLECTIVE_KINDS:
                ordinal = sched.enter(rank, ev, (d_start, local_end))
                d_end = max(local_end, (yield ("coll", ordinal, ev.seq, n)))

            # INIT / FINALIZE and non-completing TEST: purely local.

            prev = ev
            d_prev_end = d_end

        leftovers = [rid for rid, st in req_state.items() if st[1] is not None]
        if leftovers:
            sched.warnings.append(
                warn(
                    f"rank {rank}: {len(leftovers)} request(s) never completed; their "
                    f"transfer delays were dropped (§4.3 asynchronous case)",
                    code="uncompleted-requests",
                    rank=rank,
                    count=len(leftovers),
                )
            )
        return (d_prev_end, last_t_end + d_prev_end)
