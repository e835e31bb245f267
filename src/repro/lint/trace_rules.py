"""Trace-level rules (MPG0xx): defects visible in one rank's raw
event stream, before any cross-rank matching.

These are the §4.1 preconditions the paper assumes silently: local
timestamps move forward, event records are dense and complete, and
nonblocking requests follow the post/complete protocol.  All checks
use only per-rank information — never cross-rank timestamp comparison,
which the methodology forbids (the one cross-rank rule, MPG007,
compares durations, not clock readings).

Each rule reads a rank's :class:`~repro.trace.columns.EventColumns`
and first decides with array comparisons whether the rank holds any
finding at all; only a rank that does is walked event by event, by
the loop that words the findings.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.lint.model import Finding, LintConfig, Severity
from repro.lint.registry import rule
from repro.trace.events import COMPLETION_KINDS, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import LintContext
    from repro.trace.columns import EventColumns

_COMPLETION_CODES = [int(k) for k in COMPLETION_KINDS]


def _overlaps(frame: EventColumns) -> bool:
    """Whether an event starts before the latest END so far (NaN ENDs
    are skipped, as the walk skips them)."""
    if len(frame) < 2:
        return False
    return bool(np.any(frame.t_start[1:] < np.fmax.accumulate(frame.t_end)[:-1]))


def _request_ids(frame: EventColumns):
    """``(opened, completions)``: the ids ISEND/IRECV rows open with
    their rows, and the completed ids of completion rows with theirs."""
    kind = frame.kind
    nb = (kind == EventKind.ISEND) | (kind == EventKind.IRECV)
    n_done = np.diff(frame.done_ptr)
    done_row = np.repeat(np.arange(len(frame)), n_done)
    of_completion = np.isin(kind, _COMPLETION_CODES)[done_row]
    return (
        (frame.req[nb], np.nonzero(nb)[0]),
        (frame.done[of_completion], done_row[of_completion], of_completion),
    )


def _protocol_kept(frame: EventColumns) -> bool:
    """Whether every request follows the post/complete protocol: each
    ISEND/IRECV opens a fresh nonnegative id, and each completion
    retires ids opened before it, still open, and among its own."""
    (opened, open_row), (ids, row, of_completion) = _request_ids(frame)
    if np.any(opened < 0):
        return False
    order = np.argsort(opened, kind="stable")
    known = opened[order]
    if np.any(known[1:] == known[:-1]) or len(np.unique(ids)) != len(ids):
        return False  # a reused id, or one completed twice
    at = np.minimum(np.searchsorted(known, ids), max(len(known) - 1, 0))
    if len(ids) and (not len(known) or np.any(known[at] != ids)):
        return False  # completes an id never opened
    if np.any(open_row[order][at] >= row):
        return False  # opened only after its completion
    # Completed ids are among the row's own request ids: where a row's
    # two lists have one length they are compared position by position;
    # the other rows are looked up one by one.
    n_reqs = np.diff(frame.reqs_ptr)
    n_done = np.diff(frame.done_ptr)
    pos = np.arange(len(frame.done)) - np.repeat(frame.done_ptr[:-1], n_done)
    pos, same = pos[of_completion], (n_reqs == n_done)[row]
    aligned = np.zeros(len(ids), dtype=bool)
    if len(frame.reqs):
        at = np.where(same, frame.reqs_ptr[row] + pos, 0)
        aligned = same & (frame.reqs[at] == ids)
    return all(
        rid in frame.reqs_of(r) for rid, r in zip(ids[~aligned].tolist(), row[~aligned].tolist())
    )

__all__: list[str] = []  # rules register themselves; nothing to re-export


@rule(
    id="MPG001",
    code="overlapping-events",
    severity=Severity.ERROR,
    category="trace",
    summary="per-rank local timestamps must be monotone (no overlapping events)",
    rationale=(
        "The compute-phase gap between consecutive events becomes a local edge "
        "weight; an event starting before its predecessor ended yields a negative "
        "weight and a meaningless perturbed completion time (§4.1)."
    ),
)
def overlapping_events(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    for rank, frame in ctx.ranks():
        if not _overlaps(frame):
            continue
        events = frame.records()
        prev_end = -math.inf
        prev_seq = None
        for ev in events:
            if ev.t_start < prev_end:
                yield overlapping_events.finding(
                    f"event #{ev.seq} ({ev.kind.name}) starts at {ev.t_start:g} before "
                    f"event #{prev_seq} ended at {prev_end:g}",
                    rank=rank,
                    seq=ev.seq,
                )
            if ev.t_end >= prev_end:
                prev_end, prev_seq = ev.t_end, ev.seq


@rule(
    id="MPG002",
    code="negative-timestamp",
    severity=Severity.ERROR,
    category="trace",
    summary="timestamps must be finite and consistent with the declared clock",
    rationale=(
        "Local clocks are arbitrarily offset (§4.1), so negative local time is "
        "legitimate when the trace header declares a negative clock_offset — but "
        "a negative timestamp under a nonnegative declared offset, or any "
        "non-finite timestamp, means the clock source misbehaved or the record "
        "was corrupted in transit."
    ),
)
def negative_timestamp(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    for rank, frame in ctx.ranks():
        meta = ctx.meta(rank)
        offset_explains_negative = meta is not None and meta.clock_offset < 0
        bad = ~np.isfinite(frame.t_start) | ~np.isfinite(frame.t_end)
        if not offset_explains_negative:
            bad |= frame.t_start < 0
        if not bad.any():
            continue
        for ev in frame.records():
            if not math.isfinite(ev.t_start) or not math.isfinite(ev.t_end):
                yield negative_timestamp.finding(
                    f"event #{ev.seq} ({ev.kind.name}) has non-finite timestamps "
                    f"[{ev.t_start!r}, {ev.t_end!r}]",
                    rank=rank,
                    seq=ev.seq,
                )
            elif ev.t_start < 0 and not offset_explains_negative:
                if meta is not None:
                    why = f"the trace header declares clock_offset {meta.clock_offset:g}"
                else:
                    why = "no clock offset is declared"
                yield negative_timestamp.finding(
                    f"event #{ev.seq} ({ev.kind.name}) has negative timestamps "
                    f"[{ev.t_start:g}, {ev.t_end:g}] but {why}",
                    rank=rank,
                    seq=ev.seq,
                )


@rule(
    id="MPG003",
    code="truncated-trace",
    severity=Severity.ERROR,
    category="trace",
    summary="per-rank sequence numbers must be dense from 0",
    rationale=(
        "A gap or repeat in the sequence numbering means event records were lost, "
        "truncated, or duplicated; order-based matching then pairs the wrong "
        "sends and receives silently (§4.1)."
    ),
)
def truncated_trace(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    for rank, frame in ctx.ranks():
        if not len(frame):
            yield truncated_trace.finding(f"rank {rank} trace holds no events", rank=rank)
            continue
        if not (np.any(frame.rank != rank) or np.any(frame.seq != np.arange(len(frame)))):
            continue
        for i, ev in enumerate(frame.records()):
            if ev.rank != rank:
                yield truncated_trace.finding(
                    f"record {i} claims rank {ev.rank} but was read from rank {rank}'s trace",
                    rank=rank,
                    seq=ev.seq,
                )
            if ev.seq != i:
                yield truncated_trace.finding(
                    f"record {i} carries seq {ev.seq} (expected {i}); trace is "
                    f"truncated or reordered",
                    rank=rank,
                    seq=ev.seq,
                )


@rule(
    id="MPG004",
    code="missing-framing",
    severity=Severity.WARNING,
    category="trace",
    summary="each rank's trace should be framed by INIT and FINALIZE",
    rationale=(
        "The analyzer measures the run from INIT to FINALIZE; a trace missing "
        "either end describes an incomplete run, so makespan deltas are lower "
        "bounds at best (§4.3 assumes the program ran to completion)."
    ),
)
def missing_framing(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    for rank, frame in ctx.ranks():
        if not len(frame):
            continue
        events = (frame.record(0), frame.record(len(frame) - 1))
        if events[0].kind != EventKind.INIT:
            yield missing_framing.finding(
                f"first event is {events[0].kind.name}, not INIT", rank=rank, seq=events[0].seq
            )
        if events[-1].kind != EventKind.FINALIZE:
            yield missing_framing.finding(
                f"last event is {events[-1].kind.name}, not FINALIZE",
                rank=rank,
                seq=events[-1].seq,
            )


@rule(
    id="MPG005",
    code="wait-without-request",
    severity=Severity.ERROR,
    category="trace",
    summary="completion events must reference live request ids",
    rationale=(
        "WAIT-family events are matched to the nonblocking operation that opened "
        "the request (Fig. 3); completing an unknown or already-retired id breaks "
        "the wait-pair linkage and the nonblocking subgraph templates."
    ),
)
def wait_without_request(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    for rank, frame in ctx.ranks():
        if _protocol_kept(frame):
            continue
        open_reqs: set[int] = set()
        seen_reqs: set[int] = set()
        for ev in frame.records():
            if ev.kind in (EventKind.ISEND, EventKind.IRECV):
                if ev.req < 0:
                    yield wait_without_request.finding(
                        f"{ev.kind.name} event #{ev.seq} carries no request id",
                        rank=rank,
                        seq=ev.seq,
                    )
                elif ev.req in seen_reqs:
                    yield wait_without_request.finding(
                        f"{ev.kind.name} event #{ev.seq} reuses request id {ev.req}",
                        rank=rank,
                        seq=ev.seq,
                    )
                else:
                    seen_reqs.add(ev.req)
                    open_reqs.add(ev.req)
            elif ev.kind.is_completion:
                for rid in ev.completed:
                    if rid not in seen_reqs:
                        yield wait_without_request.finding(
                            f"{ev.kind.name} event #{ev.seq} completes unknown request {rid}",
                            rank=rank,
                            seq=ev.seq,
                        )
                    elif rid not in open_reqs:
                        yield wait_without_request.finding(
                            f"{ev.kind.name} event #{ev.seq} completes already-retired "
                            f"request {rid}",
                            rank=rank,
                            seq=ev.seq,
                        )
                    else:
                        open_reqs.discard(rid)
                stray = [rid for rid in ev.completed if rid not in ev.reqs]
                if stray:
                    yield wait_without_request.finding(
                        f"{ev.kind.name} event #{ev.seq} reports completed ids {stray} "
                        f"not among its requests {list(ev.reqs)}",
                        rank=rank,
                        seq=ev.seq,
                    )


@rule(
    id="MPG006",
    code="uncompleted-request",
    severity=Severity.WARNING,
    category="trace",
    summary="nonblocking requests should be completed before FINALIZE",
    rationale=(
        "An ISEND/IRECV whose request is never retired leaves its transfer "
        "unanchored: delays through it are dropped and correctness of arbitrary "
        "perturbations cannot be guaranteed (§4.3)."
    ),
)
def uncompleted_request(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    for rank, frame in ctx.ranks():
        # Under the protocol every id is opened once and retired at
        # most once, so equal counts leave none open.
        (opened, _), (ids, _, _) = _request_ids(frame)
        if len(opened) == len(ids) and _protocol_kept(frame):
            continue
        open_reqs: dict[int, int] = {}  # req id -> seq that opened it
        for ev in frame.records():
            if ev.kind in (EventKind.ISEND, EventKind.IRECV):
                if ev.req >= 0 and ev.req not in open_reqs:
                    open_reqs[ev.req] = ev.seq
            elif ev.kind.is_completion:
                for rid in ev.completed:
                    open_reqs.pop(rid, None)
        for rid, seq in sorted(open_reqs.items(), key=lambda kv: kv[1]):
            yield uncompleted_request.finding(
                f"request {rid} opened by event #{seq} was never completed",
                rank=rank,
                seq=seq,
            )


@rule(
    id="MPG007",
    code="clock-skew-outlier",
    severity=Severity.WARNING,
    category="trace",
    summary="per-rank trace spans should agree to within the skew tolerance",
    rationale=(
        "Local clocks may be offset, but every rank spans the same physical run; "
        "a rank whose INIT→FINALIZE duration deviates far from the cross-rank "
        "median indicates severe clock drift or a mixed-up trace set, which "
        "distorts every local edge weight on that rank."
    ),
)
def clock_skew_outlier(ctx: LintContext, config: LintConfig) -> Iterator[Finding]:
    spans = ctx.spans
    if len(spans) < 3:  # an outlier needs a quorum to be an outlier of
        return
    ordered = sorted(s for _, s in spans)
    mid = len(ordered) // 2
    median = (
        ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    if median <= 0:
        return
    for rank, span in spans:
        deviation = abs(span - median) / median
        if deviation > config.skew_tolerance:
            yield clock_skew_outlier.finding(
                f"trace span {span:g} cy deviates {deviation:.0%} from the cross-rank "
                f"median {median:g} cy (tolerance {config.skew_tolerance:.0%})",
                rank=rank,
            )
