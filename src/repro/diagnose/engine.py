"""Diagnosis engine: path + attribution + anomalies → a lint-shaped report.

:func:`diagnose_build` runs the three analysis stages over an existing
:class:`~repro.core.builder.BuildResult`, hands the results to the
MPG2xx rule pack, and finalizes a :class:`DiagnosisReport` — a
:class:`~repro.lint.engine.LintReport` subclass the existing text /
JSON / SARIF reporters render unchanged, with the structured analysis
artifacts riding along for programmatic consumers.

The report is deterministic: the critical path is bit-identical to the
scalar reference oracle, the anomaly detector is pure arithmetic over
the traces, and replicate delays reuse the exact Monte-Carlo seed
schedule (``seed + i``) through the compiled batch kernel — so CI can
gate on the SARIF output without flakes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.builder import BuildResult
from repro.core.compiled import compiled_plan
from repro.core.perturb import PerturbationSpec
from repro.core.traversal import MODES
from repro.diagnose.anomaly import AnomalyReport, detect_anomalies
from repro.diagnose.attribution import Attribution, attribute_path
from repro.diagnose.path import CriticalPathExtract, extract_critical_path
from repro.lint.engine import LintContext, LintReport, run_rules
from repro.lint.model import LintConfig
from repro.lint.report import render_text, report_to_dict
from repro.noise.signature import MachineSignature
from repro.trace.reader import TraceSource

__all__ = [
    "DiagnoseConfig",
    "DiagnoseContext",
    "DiagnosisReport",
    "diagnose_build",
    "diagnosis_to_dict",
    "render_diagnosis_text",
]


@dataclass(frozen=True)
class DiagnoseConfig:
    """Tuning knobs of one diagnosis pass.

    ``replicates`` > 0 adds the Monte-Carlo replicate-delay metric,
    which needs a machine signature and reuses the standard ``seed + i``
    replicate schedule.  The rule thresholds
    are deliberately conservative — see :mod:`repro.diagnose.rules`.
    ``lint`` carries the shared rule mechanics (disables, severity
    overrides, emission caps) for the MPG2xx pack.
    """

    replicates: int = 0
    seed: int = 0
    scale: float = 1.0
    mode: str = "additive"
    z_threshold: float = 3.5
    rel_excess: float = 1.2
    min_peers: int = 2
    bottleneck_rank_share: float = 0.95
    serialization_margin: float = 0.8
    bottleneck_primitive_share: float = 0.6
    imbalance_ratio: float = 2.0
    top_edges: int = 10
    lint: LintConfig = field(default_factory=LintConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.replicates < 0:
            raise ValueError("replicates must be >= 0")
        if self.z_threshold <= 0 or self.rel_excess < 1.0:
            raise ValueError("z_threshold must be > 0 and rel_excess >= 1.0")
        if not 0.0 < self.bottleneck_rank_share <= 1.0:
            raise ValueError("bottleneck_rank_share must be in (0, 1]")
        if not 0.0 < self.serialization_margin <= 1.0:
            raise ValueError("serialization_margin must be in (0, 1]")
        if not 0.0 < self.bottleneck_primitive_share <= 1.0:
            raise ValueError("bottleneck_primitive_share must be in (0, 1]")
        if self.imbalance_ratio < 1.0:
            raise ValueError("imbalance_ratio must be >= 1.0")


class DiagnoseContext(LintContext):
    """What an MPG2xx rule may inspect: the build plus the three
    analysis artifacts, and the active :class:`DiagnoseConfig`."""

    def __init__(
        self,
        build: BuildResult,
        cp: CriticalPathExtract,
        attribution: Attribution,
        anomalies: AnomalyReport,
        config: DiagnoseConfig,
        trace_set: TraceSource | None = None,
    ) -> None:
        super().__init__(trace_set=trace_set, build=build)
        self.cp = cp
        self.attribution = attribution
        self.anomalies = anomalies
        self.config = config


@dataclass
class DiagnosisReport(LintReport):
    """A lint report plus the structured diagnosis artifacts."""

    critical_path: CriticalPathExtract | None = None
    attribution: Attribution | None = None
    anomalies: AnomalyReport | None = None
    replicates: int = 0


def _replicate_delays(
    build: BuildResult, config: DiagnoseConfig, signature: MachineSignature
):
    """Per-rank mean final delay over the Monte-Carlo replicate batch,
    using the exact ``seed + i`` schedule of ``replicate_items``."""
    spec = PerturbationSpec(signature, seed=config.seed, scale=config.scale)
    plan = compiled_plan(build)
    seeds = [config.seed + i for i in range(config.replicates)]
    with obs.span("diagnose.replicates", replicates=config.replicates):
        batch = plan.propagate_batch(spec, seeds=seeds, mode=config.mode)
    return batch.delays.mean(axis=0)


def diagnose_build(
    build: BuildResult,
    config: DiagnoseConfig | None = None,
    signature: MachineSignature | None = None,
    trace_set: TraceSource | None = None,
) -> DiagnosisReport:
    """Diagnose an existing build: critical path, attribution, anomaly
    detection, then the MPG2xx rule pack.

    ``signature`` is only needed when ``config.replicates`` > 0 (the
    replicate-delay metric samples perturbations from it).
    """
    config = config or DiagnoseConfig()
    with obs.span("diagnose"):
        cp = extract_critical_path(build)
        attribution = attribute_path(build, cp, top_edges=config.top_edges)
        replicate_delays = None
        if config.replicates > 0:
            if signature is None:
                raise ValueError(
                    "replicate-delay metric needs a machine signature "
                    "(replicates > 0 without one)"
                )
            replicate_delays = _replicate_delays(build, config, signature)
        anomalies = detect_anomalies(
            build,
            z_threshold=config.z_threshold,
            rel_excess=config.rel_excess,
            min_peers=config.min_peers,
            replicate_delays=replicate_delays,
        )
        ctx = DiagnoseContext(build, cp, attribution, anomalies, config, trace_set)
        return run_rules(
            ctx,
            config.lint,
            ("diagnosis",),
            surface="diagnose",
            report=DiagnosisReport,
            critical_path=cp,
            attribution=attribution,
            anomalies=anomalies,
            replicates=config.replicates,
        )


def render_diagnosis_text(report: DiagnosisReport, verbose: bool = False) -> str:
    """Attribution tables + the standard findings rendering."""
    lines = []
    cp, attr = report.critical_path, report.attribution
    if cp is not None and attr is not None:
        lines.append(
            f"critical path: {cp.total_cost:,.0f} cy over {len(cp.edges)} edges "
            f"into rank {cp.sink_rank} [engine={cp.engine}]"
        )
        lines.append(attr.table())
        if verbose and attr.top_edges:
            lines.append("top path edges:")
            for ei, cost, primitive, rank in attr.top_edges:
                lines.append(f"  {cost:>14,.1f} cy  {primitive:<12} r{rank}  edge {ei}")
    if report.replicates:
        lines.append(f"replicate-delay metric over {report.replicates} replicates")
    lines.append(render_text(report, verbose=verbose))
    return "\n".join(lines)


def diagnosis_to_dict(report: DiagnosisReport) -> dict:
    """The lint JSON document plus a ``diagnosis`` block."""
    out = report_to_dict(report)
    out["schema"] = "repro-diagnosis-report/1"
    out["diagnosis"] = {
        "critical_path": report.critical_path.as_dict() if report.critical_path else None,
        "attribution": report.attribution.as_dict() if report.attribution else None,
        "anomalies": report.anomalies.as_dict() if report.anomalies else None,
        "replicates": report.replicates,
    }
    return out
