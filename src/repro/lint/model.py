"""Data model of the static analyzer: rules, findings, configuration.

A :class:`Rule` is one check with a stable id (``MPG001``), a
diagnostic ``code`` shared with the runtime error vocabulary
(:mod:`repro.core.diagnostics`), a default :class:`Severity`, and a
``category`` saying which layer it inspects (``trace`` = raw per-rank
event streams, ``graph`` = the built message-passing graph).  A
:class:`Finding` is one concrete defect a rule located, carrying the
rank/event/edge coordinates the reporters render.

Per-run behaviour is a :class:`LintConfig`: rules can be disabled,
their severity overridden, and the numeric thresholds of heuristic
rules tuned — all without touching the rule implementations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import LintContext

__all__ = ["Severity", "Rule", "Finding", "LintConfig"]


class Severity(enum.IntEnum):
    """Finding severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def sarif_level(self) -> str:
        """SARIF 2.1.0 ``result.level`` value."""
        return {Severity.INFO: "note", Severity.WARNING: "warning", Severity.ERROR: "error"}[self]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; choose from error, warning, info"
            ) from None


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis check.

    ``check`` receives the :class:`~repro.lint.engine.LintContext` and
    the active :class:`LintConfig` and yields findings; it must not
    mutate either.  ``code`` ties the rule to the runtime diagnostic
    vocabulary so a crash deep in the builder and a lint finding name
    the same defect.
    """

    id: str  # "MPG001"
    code: str  # diagnostics code, e.g. "overlapping-events"
    severity: Severity
    category: str  # "trace" | "graph" | "diagnosis" | "verify"
    summary: str  # one-line description (SARIF shortDescription)
    rationale: str  # why this defect matters (SARIF fullDescription)
    # Diagnosis and verify rules receive LintContext subclasses carrying
    # their analysis artifacts, so the callable is typed loosely.
    check: Callable[..., Iterator["Finding"]]

    def finding(
        self,
        message: str,
        rank: int | None = None,
        seq: int | None = None,
        node: int | None = None,
        edge: tuple[int, int] | None = None,
    ) -> "Finding":
        """A finding of this rule at its default severity."""
        return Finding(
            rule_id=self.id,
            code=self.code,
            severity=self.severity,
            message=message,
            rank=rank,
            seq=seq,
            node=node,
            edge=edge,
        )


@dataclass(frozen=True)
class Finding:
    """One defect located by a rule.

    ``rank``/``seq`` locate trace-level findings (the offending event);
    ``node``/``edge`` locate graph-level findings (node id, or
    ``(src, dst)`` node ids).  ``path`` is the trace file the event came
    from, when the linted trace set is file-backed.
    """

    rule_id: str
    code: str
    severity: Severity
    message: str
    rank: int | None = None
    seq: int | None = None
    node: int | None = None
    edge: tuple[int, int] | None = None
    path: str | None = None

    @property
    def location(self) -> str:
        """Compact human-readable location for the text reporter."""
        bits = []
        if self.rank is not None:
            bits.append(f"rank {self.rank}")
        if self.seq is not None:
            bits.append(f"event #{self.seq}")
        if self.node is not None:
            bits.append(f"node {self.node}")
        if self.edge is not None:
            bits.append(f"edge {self.edge[0]}->{self.edge[1]}")
        return ", ".join(bits) if bits else "run"

    def with_severity(self, severity: Severity) -> "Finding":
        return replace(self, severity=severity)

    def with_path(self, path: str | None) -> "Finding":
        return replace(self, path=path) if path is not None else self

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "code": self.code,
            "severity": self.severity.name.lower(),
            "message": self.message,
            "rank": self.rank,
            "seq": self.seq,
            "node": self.node,
            "edge": list(self.edge) if self.edge is not None else None,
            "path": self.path,
        }


def _sorted_tuple(items: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(items))


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule configuration.

    disabled:
        Rule ids to skip entirely.
    severity_overrides:
        ``rule id -> Severity`` replacing the rule's default (e.g.
        promote ``MPG007`` to ERROR in a strict deployment).
    skew_tolerance:
        MPG007: flag a rank whose trace span deviates from the
        cross-rank median by more than this fraction.
    max_findings_per_rule:
        Emission cap so a systematically corrupt trace produces a
        readable report instead of one finding per event.
    """

    disabled: tuple[str, ...] = ()
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)
    skew_tolerance: float = 0.5
    max_findings_per_rule: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "disabled", _sorted_tuple(self.disabled))
        if self.skew_tolerance <= 0:
            raise ValueError("skew_tolerance must be positive")
        if self.max_findings_per_rule < 1:
            raise ValueError("max_findings_per_rule must be >= 1")

    def enabled(self, rule: Rule) -> bool:
        return rule.id not in self.disabled

    def severity_for(self, rule_id: str, default: Severity) -> Severity:
        return self.severity_overrides.get(rule_id, default)
