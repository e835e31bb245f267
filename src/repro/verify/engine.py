"""Verification engine: static bounds + match analysis → a lint-shaped report.

:func:`verify_build` runs the two static analyses over an existing
:class:`~repro.core.builder.BuildResult` — certified makespan bounds
(:mod:`repro.verify.bounds`, needs a machine signature) and the
match-nondeterminism / deadlock-potential analysis
(:mod:`repro.verify.matches`) — hands the results to the MPG3xx rule
pack, and finalizes a :class:`VerifyReport`: a
:class:`~repro.lint.engine.LintReport` subclass the existing text /
JSON / SARIF reporters render unchanged, with the structured artifacts
riding along for programmatic consumers.

With ``config.replicates > 0`` the engine additionally runs the actual
Monte-Carlo propagation and cross-checks that every replicate's
per-rank delay falls inside the static enclosure — the runtime assert
tying the interval abstract interpretation to the execution engines.
Everything here is deterministic (intervals are symbolic, the HB
analysis is pure, replicates reuse the exact ``seed + i`` schedule),
so CI can gate on the SARIF output without flakes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.builder import BuildResult
from repro.core.compiled import compiled_plan
from repro.core.montecarlo import monte_carlo
from repro.core.perturb import PerturbationSpec
from repro.core.traversal import MODES
from repro.lint.engine import LintContext, LintReport, run_rules
from repro.lint.model import LintConfig
from repro.lint.report import render_text, report_to_dict
from repro.noise.signature import MachineSignature
from repro.trace.reader import TraceSource
from repro.verify.bounds import MakespanBounds, makespan_bounds
from repro.verify.intervals import DEFAULT_QUANTILE
from repro.verify.matches import MatchAnalysis, analyze_matches

__all__ = [
    "VerifyConfig",
    "VerifyContext",
    "VerifyReport",
    "render_verify_text",
    "verify_build",
    "verify_to_dict",
]


@dataclass(frozen=True)
class VerifyConfig:
    """Tuning knobs of one verification pass.

    ``quantile`` is the finite-support cut for unbounded distribution
    families (see :mod:`repro.verify.intervals`); ``scale``/``mode``
    select the perturbation regime the bounds certify, and must match
    the Monte-Carlo run they are checked against.  ``replicates`` > 0
    adds the runtime containment cross-check (propagating that many
    actual replicates through the compiled Monte-Carlo kernel).
    ``matches`` toggles the match-nondeterminism analysis.  ``lint``
    carries the shared rule mechanics (disables, severity overrides,
    emission caps) for the MPG3xx pack.
    """

    quantile: float = DEFAULT_QUANTILE
    scale: float = 1.0
    mode: str = "additive"
    replicates: int = 0
    seed: int = 0
    matches: bool = True
    lint: LintConfig = field(default_factory=LintConfig)

    def __post_init__(self) -> None:
        if not 0.5 <= self.quantile < 1.0:
            raise ValueError(f"quantile must be in [0.5, 1), got {self.quantile!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.replicates < 0:
            raise ValueError("replicates must be >= 0")


class VerifyContext(LintContext):
    """What an MPG3xx rule may inspect: the build plus the analysis
    artifacts, and the active :class:`VerifyConfig`.

    ``containment`` is ``(replicates_checked, violating_indices)`` when
    the runtime cross-check ran, else None.
    """

    def __init__(
        self,
        build: BuildResult,
        bounds: MakespanBounds | None,
        matches: MatchAnalysis | None,
        containment: tuple[int, list[int]] | None,
        config: VerifyConfig,
        trace_set: TraceSource | None = None,
    ) -> None:
        super().__init__(trace_set=trace_set, build=build)
        self.bounds = bounds
        self.matches = matches
        self.containment = containment
        self.config = config


@dataclass
class VerifyReport(LintReport):
    """A lint report plus the structured verification artifacts."""

    bounds: MakespanBounds | None = None
    matches: MatchAnalysis | None = None
    replicates: int = 0
    containment_violations: tuple[int, ...] = ()


def verify_build(
    build: BuildResult,
    config: VerifyConfig | None = None,
    signature: MachineSignature | None = None,
    trace_set: TraceSource | None = None,
) -> VerifyReport:
    """Verify an existing build: certified bounds, match analysis,
    optional runtime containment cross-check, then the MPG3xx rules.

    ``signature`` enables the bounds analysis (and is required when
    ``config.replicates`` > 0); without it only the match analysis
    runs.
    """
    config = config or VerifyConfig()
    with obs.span("verify", replicates=config.replicates):
        bounds: MakespanBounds | None = None
        containment: tuple[int, list[int]] | None = None
        if signature is not None:
            plan = compiled_plan(build)
            bounds = makespan_bounds(
                plan,
                signature,
                scale=config.scale,
                mode=config.mode,
                quantile=config.quantile,
            )
        if config.replicates > 0:
            if bounds is None:
                raise ValueError(
                    "containment cross-check needs a machine signature "
                    "(replicates > 0 without one)"
                )
            spec = PerturbationSpec(signature, seed=config.seed, scale=config.scale)
            dist = monte_carlo(
                build,
                spec,
                replicates=config.replicates,
                mode=config.mode,
            )
            containment = (config.replicates, bounds.violations(dist.samples))
        analysis = analyze_matches(build) if config.matches else None
        ctx = VerifyContext(build, bounds, analysis, containment, config, trace_set)
        return run_rules(
            ctx,
            config.lint,
            ("verify",),
            surface="verify",
            report=VerifyReport,
            bounds=bounds,
            matches=analysis,
            replicates=config.replicates,
            containment_violations=tuple(containment[1]) if containment else (),
        )


def render_verify_text(report: VerifyReport, verbose: bool = False) -> str:
    """Certificate summary + the standard findings rendering."""
    lines = []
    b = report.bounds
    if b is not None:
        cert = "absolute" if b.absolute else f"sound up to q={b.quantile:.12g}"
        lines.append(
            f"certified makespan delay in [{b.makespan_lo:,.0f}, {b.makespan_hi:,.0f}] cy "
            f"({cert}, scale {b.scale:g}, mode {b.mode})"
        )
        if verbose:
            for rank, (lo, hi) in enumerate(zip(b.rank_lo, b.rank_hi)):
                lines.append(f"  rank {rank}: [{lo:>14,.1f}, {hi:>14,.1f}] cy")
    if report.replicates:
        n_bad = len(report.containment_violations)
        status = "all contained" if n_bad == 0 else f"{n_bad} VIOLATED"
        lines.append(f"containment cross-check over {report.replicates} replicates: {status}")
    m = report.matches
    if m is not None:
        lines.append(
            f"match analysis: {m.wildcard_receives} wildcard receives, "
            f"{len(m.races)} with alternatives, {len(m.deadlocks)} deadlock chains"
        )
    lines.append(render_text(report, verbose=verbose))
    return "\n".join(lines)


def verify_to_dict(report: VerifyReport) -> dict:
    """The lint JSON document plus a ``verification`` block."""
    out = report_to_dict(report)
    out["schema"] = "repro-verify-report/1"
    out["verification"] = {
        "bounds": report.bounds.as_dict() if report.bounds else None,
        "matches": report.matches.as_dict() if report.matches else None,
        "replicates": report.replicates,
        "containment_violations": list(report.containment_violations),
    }
    return out
