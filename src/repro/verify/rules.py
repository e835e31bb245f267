"""MPG3xx — the static verification rule pack.

These rules interpret the two :mod:`repro.verify` analyses — certified
makespan bounds and match-nondeterminism — and re-express the results
as findings so the existing lint reporters (text / JSON / SARIF) and
CI gates apply unchanged.

Severity policy (mirrors the MPG2xx pack): statements of *what was
certified* are INFO, always emitted, so a verification report is never
empty; judgements that the program's behavior is at risk — an
observably divergent alternative matching, a would-block chain, a
replicate escaping its certified bounds — are WARNING or ERROR, which
the CI ``verify`` job gates on.  A benign wildcard race (alternatives
exist but every one delivers an identical-shape message, the
master/worker idiom) is deliberately INFO: the nondeterminism is real
but harmless, and flagging it would make every work-stealing app fail
the gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.model import Finding, LintConfig, Severity
from repro.lint.registry import rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.engine import VerifyContext

__all__ = [
    "certified_bounds",
    "quantile_bounded_support",
    "bounds_containment",
    "containment_violation",
    "wildcard_nondeterminism",
    "match_order_race",
    "deadlock_potential",
]


@rule(
    "MPG300",
    "certified-bounds",
    Severity.INFO,
    "verify",
    "Certified makespan bounds",
    "The interval abstract interpretation produced a guaranteed "
    "[lo, hi] enclosure of the perturbed makespan without sampling. "
    "Always emitted when bounds were computed, so every verification "
    "report states its certificate.",
)
def certified_bounds(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    b = ctx.bounds
    if b is None:
        return
    cert = "absolute" if b.absolute else f"sound up to q={b.quantile:.12g} per draw"
    r = certified_bounds
    yield r.finding(
        f"certified makespan delay in [{b.makespan_lo:,.0f}, {b.makespan_hi:,.0f}] cy "
        f"over {b.sampled_edges} sampled edges "
        f"(scale {b.scale:g}, mode {b.mode}, {cert})"
    )


@rule(
    "MPG301",
    "quantile-bounded-support",
    Severity.INFO,
    "verify",
    "Bounds rely on the finite-support policy",
    "Some edge distributions have unbounded support (Normal, "
    "Exponential, ...); their intervals were cut at a tail quantile, "
    "so the certificate holds up to that quantile per affected draw "
    "rather than absolutely.  See docs/VERIFICATION.md for the union-"
    "bound failure probability.",
)
def quantile_bounded_support(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    b = ctx.bounds
    if b is None or b.absolute:
        return
    r = quantile_bounded_support
    yield r.finding(
        f"{b.q_bounded_edges} of {b.sampled_edges} sampled edges use "
        f"quantile-bounded intervals (q={b.quantile:.12g}); the makespan "
        f"certificate is sound up to q per affected draw"
    )


@rule(
    "MPG302",
    "bounds-containment",
    Severity.INFO,
    "verify",
    "Monte-Carlo replicates verified inside the bounds",
    "The runtime cross-check propagated actual Monte-Carlo replicates "
    "and every per-rank delay fell inside the static enclosure — the "
    "invariant tying the static layer to the execution engines.",
)
def bounds_containment(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    if ctx.bounds is None or ctx.containment is None:
        return
    checked, violations = ctx.containment
    if violations:
        return  # MPG303 carries the failure
    r = bounds_containment
    yield r.finding(f"all {checked} Monte-Carlo replicates contained in the certified bounds")


@rule(
    "MPG303",
    "containment-violation",
    Severity.ERROR,
    "verify",
    "A replicate escaped the certified bounds",
    "A Monte-Carlo replicate's per-rank delay fell outside the static "
    "[lo, hi] enclosure.  The bounds are constructed to be exact "
    "(monotone float kernels, identical schedules), so this indicates "
    "a soundness bug in the interval derivation or a distribution "
    "family whose sampler disagrees with its declared support — "
    "treat as a verifier defect, not program behavior.",
)
def containment_violation(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    if ctx.bounds is None or ctx.containment is None:
        return
    checked, violations = ctx.containment
    r = containment_violation
    for rep in violations:
        yield r.finding(
            f"replicate {rep} of {checked} escaped the certified bounds "
            f"[{ctx.bounds.makespan_lo:,.0f}, {ctx.bounds.makespan_hi:,.0f}] cy"
        )


@rule(
    "MPG310",
    "wildcard-nondeterminism",
    Severity.INFO,
    "verify",
    "A wildcard receive has feasible alternative senders",
    "A receive posted with ANY_SOURCE/ANY_TAG could legally have "
    "matched a different sender (the swapped matching is closable and "
    "not excluded by happens-before or MPI non-overtaking order). "
    "Every alternative delivers an identical-shape message, so the "
    "nondeterminism is benign — reported as information because the "
    "schedule dependence is real and worth knowing about.",
)
def wildcard_nondeterminism(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    m = ctx.matches
    if m is None:
        return
    r = wildcard_nondeterminism
    for race in m.races:
        if race.divergent:
            continue  # MPG311 carries the observable case
        rank, seq = race.recv
        alts = ", ".join(f"r{a[0]}#{a[1]}" for a in race.alternatives)
        yield r.finding(
            f"wildcard receive r{rank}#{seq} matched send "
            f"r{race.matched[0]}#{race.matched[1]} but could also have "
            f"matched {alts} (identical tag and size)",
            rank=rank,
            seq=seq,
        )


@rule(
    "MPG311",
    "match-order-race",
    Severity.WARNING,
    "verify",
    "An alternative matching is observably different",
    "A feasible alternative sender for a wildcard receive carries a "
    "different tag or payload size than the message that actually "
    "matched: under another legal schedule the program receives "
    "different data.  This is a genuine match-order race — the "
    "recorded run is just one of several observably distinct "
    "executions.",
)
def match_order_race(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    m = ctx.matches
    if m is None:
        return
    r = match_order_race
    for race in m.races:
        if not race.divergent:
            continue
        rank, seq = race.recv
        alts = ", ".join(f"r{a[0]}#{a[1]}" for a in race.divergent)
        yield r.finding(
            f"ambiguous wildcard receive r{rank}#{seq}: matched send "
            f"r{race.matched[0]}#{race.matched[1]} but {alts} "
            f"{'carries' if len(race.divergent) == 1 else 'carry'} a "
            f"different tag or size — match order changes what the "
            f"program reads",
            rank=rank,
            seq=seq,
        )


@rule(
    "MPG312",
    "deadlock-potential",
    Severity.WARNING,
    "verify",
    "A reordered matching would block a receive forever",
    "If the wildcard receive stole the flagged message, the receive "
    "that actually consumed it could accept no other sender — the "
    "reordered execution deadlocks.  The recorded run completed only "
    "because the race resolved favorably.",
)
def deadlock_potential(ctx: "VerifyContext", config: LintConfig) -> Iterator[Finding]:
    m = ctx.matches
    if m is None:
        return
    r = deadlock_potential
    for chain in m.deadlocks:
        rank, seq = chain.recv
        yield r.finding(
            f"wildcard receive r{rank}#{seq} can steal send "
            f"r{chain.stolen[0]}#{chain.stolen[1]} from receive "
            f"r{chain.starved[0]}#{chain.starved[1]}, which then has no "
            f"feasible sender — potential deadlock under match reordering",
            rank=rank,
            seq=seq,
        )
